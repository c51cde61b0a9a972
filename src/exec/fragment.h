// Plan fragments: the units of parallel execution (§2.1).
//
// A sequential plan is decomposed at its *blocking edges* — edges where one
// operation must consume its input completely before producing anything:
// the input of a Sort and the build side of a HashJoin. The maximal
// pipelineable subgraphs between blocking edges are the plan fragments;
// inter-operation parallelism in XPRS is inter-fragment parallelism.
//
// Fragment outputs are materialized into shared memory (TempResult) and
// consumed by the parent fragment through a TempSourceOp.

#ifndef XPRS_EXEC_FRAGMENT_H_
#define XPRS_EXEC_FRAGMENT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/operators.h"
#include "exec/plan.h"

namespace xprs {

/// One plan fragment.
struct Fragment {
  int id = -1;
  /// Root of the fragment's subtree within the original plan. For a
  /// sort-boundary fragment this *is* the Sort node (the producing
  /// fragment pays the sort work).
  const PlanNode* root = nullptr;
  /// Blocked inputs: plan node -> id of the fragment that produces it.
  std::map<const PlanNode*, int> blocked_inputs;
  /// Fragments that must finish before this one can run.
  std::vector<int> deps;

  std::string ToString() const;
};

/// The fragment DAG of one plan.
class FragmentGraph {
 public:
  /// Decomposes `plan` (which must outlive the graph).
  static FragmentGraph Decompose(const PlanNode& plan);

  const std::vector<Fragment>& fragments() const { return fragments_; }
  const Fragment& fragment(int id) const { return fragments_[id]; }

  /// Fragment producing the final query output.
  int root_fragment() const { return root_fragment_; }

  /// Ids in a valid execution order (dependencies first).
  std::vector<int> TopologicalOrder() const;

  std::string ToString() const;

 private:
  int NewFragment(const PlanNode* root);
  // Walks `node` within fragment `frag`, splitting at blocking edges.
  void Walk(const PlanNode* node, int frag);

  std::vector<Fragment> fragments_;
  int root_fragment_ = -1;
};

/// Structural invariants of a decomposition, asserted by the differential
/// harness: the root fragment's root is the plan root; every blocked input
/// maps to a fragment rooted at exactly that node and listed in deps; the
/// topological order is a dependency-respecting permutation of all
/// fragments; and the fragments' pipeline node sets partition the plan —
/// each plan node is owned by exactly one fragment (fragment accounting).
/// Returns FailedPrecondition describing the first violation.
Status ValidateFragmentGraph(const FragmentGraph& graph, const PlanNode& plan);

/// The plan-to-operator builder behind every execution mode. Builds the
/// subtree at `node`: each node in `blocked` becomes a TempSourceOp over
/// its materialized output, and `source` feeds the driving leaf (the
/// left-most scan or blocked input); inner and build-side leaves always
/// read whole. In vectorized mode, maximal batch-capable subtrees compile
/// to batch pipelines (exec/batch_ops.h).
StatusOr<std::unique_ptr<Operator>> BuildOperators(
    const PlanNode& node, const ExecContext& ctx, const BlockedInputs& blocked,
    const GranuleSource& source);

/// Builds the operator tree of one fragment, its blocked inputs read from
/// `inputs`. A parallel fragment's slaves each pass a `source` over the
/// shared partition state.
StatusOr<std::unique_ptr<Operator>> BuildFragmentOperators(
    const FragmentGraph& graph, int frag_id,
    const std::map<int, const TempResult*>& inputs, const ExecContext& ctx,
    const GranuleSource& source = {});

/// Executes one fragment whole with the given materialized inputs.
StatusOr<TempResult> ExecuteFragment(
    const FragmentGraph& graph, int frag_id,
    const std::map<int, const TempResult*>& inputs, const ExecContext& ctx);

/// The driving leaf of a fragment: its left-most plan node that is either
/// a scan or a blocked input. Returns the node (which may be a blocked
/// input node — check fragment.blocked_inputs).
const PlanNode* DrivingLeaf(const FragmentGraph& graph, int frag_id);

/// Executes a whole plan fragment-by-fragment in dependency order (each
/// fragment sequential). Must produce exactly what ExecutePlanSequential
/// produces — the integration tests assert this.
StatusOr<std::vector<Tuple>> ExecutePlanFragmented(const PlanNode& plan,
                                                   const ExecContext& ctx);

}  // namespace xprs

#endif  // XPRS_EXEC_FRAGMENT_H_
