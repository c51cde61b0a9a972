#include "exec/fragment.h"

#include <algorithm>

#include "exec/batch_ops.h"
#include "exec/profile.h"
#include "exec/spill_ops.h"

#include "util/check.h"
#include "util/str.h"

namespace xprs {

std::string Fragment::ToString() const {
  std::string deps_str = StrJoin(deps, ",");
  return StrFormat("Fragment{%d root=%s deps=[%s] inputs=%zu}", id,
                   PlanKindName(root->kind), deps_str.c_str(),
                   blocked_inputs.size());
}

int FragmentGraph::NewFragment(const PlanNode* root) {
  Fragment f;
  f.id = static_cast<int>(fragments_.size());
  f.root = root;
  fragments_.push_back(std::move(f));
  return fragments_.back().id;
}

FragmentGraph FragmentGraph::Decompose(const PlanNode& plan) {
  FragmentGraph g;
  g.root_fragment_ = g.NewFragment(&plan);
  g.Walk(&plan, g.root_fragment_);
  return g;
}

void FragmentGraph::Walk(const PlanNode* node, int frag) {
  switch (node->kind) {
    case PlanKind::kSeqScan:
    case PlanKind::kIndexScan:
      return;

    case PlanKind::kSort:
    case PlanKind::kAggregate:
      if (node == fragments_[frag].root) {
        // This fragment *is* the blocking producer: the pipeline below
        // feeds the sort buffer / aggregation table, and the fragment pays
        // that work.
        Walk(node->left.get(), frag);
      } else {
        // Blocking edge: everything from this node down is a new fragment.
        int child = NewFragment(node);
        fragments_[frag].blocked_inputs[node] = child;
        fragments_[frag].deps.push_back(child);
        Walk(node, child);
      }
      return;

    case PlanKind::kNestLoopJoin:
    case PlanKind::kMergeJoin:
      // Both inputs pipeline (merge join inputs are Sort nodes, which cut
      // their own boundaries above).
      Walk(node->left.get(), frag);
      Walk(node->right.get(), frag);
      return;

    case PlanKind::kHashJoin: {
      // Probe side pipelines; the build side is a blocking edge.
      Walk(node->left.get(), frag);
      int child = NewFragment(node->right.get());
      fragments_[frag].blocked_inputs[node->right.get()] = child;
      fragments_[frag].deps.push_back(child);
      Walk(node->right.get(), child);
      return;
    }
  }
}

std::vector<int> FragmentGraph::TopologicalOrder() const {
  // Children are always created after their parent, so descending id order
  // is a valid schedule; Kahn's algorithm keeps this robust anyway.
  std::vector<int> in_deg(fragments_.size(), 0);
  std::vector<std::vector<int>> fwd(fragments_.size());
  for (const auto& f : fragments_) {
    for (int dep : f.deps) {
      fwd[dep].push_back(f.id);
      ++in_deg[f.id];
    }
  }
  std::vector<int> order;
  std::vector<int> queue;
  for (const auto& f : fragments_)
    if (in_deg[f.id] == 0) queue.push_back(f.id);
  while (!queue.empty()) {
    int id = queue.back();
    queue.pop_back();
    order.push_back(id);
    for (int next : fwd[id])
      if (--in_deg[next] == 0) queue.push_back(next);
  }
  XPRS_CHECK_EQ(order.size(), fragments_.size());
  return order;
}

std::string FragmentGraph::ToString() const {
  std::string out;
  for (const auto& f : fragments_) {
    out += f.ToString();
    out += '\n';
  }
  return out;
}

namespace {

// Counts the plan nodes fragment `frag` owns: its pipeline from the root
// down, stopping at (not counting) blocked inputs. Nodes under a blocked
// input belong to the producing fragment.
size_t CountOwnedNodes(const Fragment& frag, const PlanNode* node) {
  if (node != frag.root && frag.blocked_inputs.count(node)) return 0;
  size_t n = 1;
  if (node->left) n += CountOwnedNodes(frag, node->left.get());
  if (node->right) n += CountOwnedNodes(frag, node->right.get());
  return n;
}

}  // namespace

Status ValidateFragmentGraph(const FragmentGraph& graph,
                             const PlanNode& plan) {
  const auto& fragments = graph.fragments();
  if (fragments.empty()) return Status::FailedPrecondition("no fragments");
  int root = graph.root_fragment();
  if (root < 0 || root >= static_cast<int>(fragments.size()))
    return Status::FailedPrecondition("root fragment id out of range");
  if (graph.fragment(root).root != &plan)
    return Status::FailedPrecondition(
        "root fragment is not rooted at the plan root");

  size_t owned = 0;
  for (const Fragment& frag : fragments) {
    if (frag.root == nullptr)
      return Status::FailedPrecondition(
          StrFormat("fragment %d has no root", frag.id));
    // Every blocked input maps to an in-range fragment rooted at exactly
    // that node and listed among deps.
    for (const auto& [node, child] : frag.blocked_inputs) {
      if (child < 0 || child >= static_cast<int>(fragments.size()))
        return Status::FailedPrecondition(
            StrFormat("fragment %d: blocked input points to fragment %d",
                      frag.id, child));
      if (graph.fragment(child).root != node)
        return Status::FailedPrecondition(
            StrFormat("fragment %d: child fragment %d rooted elsewhere",
                      frag.id, child));
      if (std::find(frag.deps.begin(), frag.deps.end(), child) ==
          frag.deps.end())
        return Status::FailedPrecondition(
            StrFormat("fragment %d: child %d missing from deps", frag.id,
                      child));
    }
    if (frag.deps.size() != frag.blocked_inputs.size())
      return Status::FailedPrecondition(
          StrFormat("fragment %d: %zu deps vs %zu blocked inputs", frag.id,
                    frag.deps.size(), frag.blocked_inputs.size()));
    owned += CountOwnedNodes(frag, frag.root);
  }
  // Fragment accounting: pipelines partition the plan tree.
  if (owned != PlanSize(plan))
    return Status::FailedPrecondition(
        StrFormat("fragments own %zu nodes, plan has %zu", owned,
                  PlanSize(plan)));

  // The topological order covers every fragment once, dependencies first.
  std::vector<int> order = graph.TopologicalOrder();
  if (order.size() != fragments.size())
    return Status::FailedPrecondition("topological order size mismatch");
  std::map<int, size_t> position;
  for (size_t i = 0; i < order.size(); ++i) {
    if (!position.emplace(order[i], i).second)
      return Status::FailedPrecondition(
          StrFormat("fragment %d appears twice in topological order",
                    order[i]));
  }
  for (const Fragment& frag : fragments) {
    auto self = position.find(frag.id);
    if (self == position.end())
      return Status::FailedPrecondition(
          StrFormat("fragment %d missing from topological order", frag.id));
    for (int dep : frag.deps) {
      auto it = position.find(dep);
      if (it == position.end() || it->second >= self->second)
        return Status::FailedPrecondition(
            StrFormat("fragment %d scheduled before its dep %d", frag.id,
                      dep));
    }
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<Operator>> BuildOperators(
    const PlanNode& node, const ExecContext& ctx, const BlockedInputs& blocked,
    const GranuleSource& source) {
  // A blocked input is replaced by a source over the producing fragment's
  // materialized output. Not profiled: it re-emits another fragment's
  // output, and profiling it would double-count the producing node.
  if (auto temp = blocked.find(&node); temp != blocked.end()) {
    return MaybeCancelGuard(
        std::make_unique<TempSourceOp>(temp->second, source.next_page),
        ctx.cancel);
  }

  // Vectorized mode: compile maximal batch-capable subtrees to the batch
  // operators. Non-vectorizable ancestors (sort, merge join, ...) fall
  // through to the tuple operators below, and their child recursion lands
  // back here — so mixed plans get a tuple crown over vectorized subtrees.
  if (ctx.vectorized && VectorizableSubtree(node, ctx, blocked))
    return BuildVectorizedTree(node, ctx, blocked, source);

  // Only the left-most leaf drives the pipeline; inner and build sides
  // read whole.
  auto left = [&]() {
    return BuildOperators(*node.left, ctx, blocked, source);
  };
  auto right = [&]() {
    return BuildOperators(*node.right, ctx, blocked, GranuleSource());
  };
  std::unique_ptr<Operator> op;
  switch (node.kind) {
    case PlanKind::kSeqScan:
      op = std::make_unique<SeqScanOp>(node.table, node.predicate, ctx,
                                       source.next_page);
      break;
    case PlanKind::kIndexScan:
      op = std::make_unique<IndexScanOp>(node.table, node.predicate,
                                         node.index_range, ctx,
                                         source.next_range);
      break;
    case PlanKind::kSort: {
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> child, left());
      if (ctx.spill.temp_array != nullptr) {
        op = std::make_unique<ExternalSortOp>(std::move(child), node.sort_key,
                                              ctx.spill);
      } else {
        op = std::make_unique<SortOp>(std::move(child), node.sort_key);
      }
      break;
    }
    case PlanKind::kAggregate: {
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> child, left());
      op = std::make_unique<AggregateOp>(std::move(child), node.output_schema,
                                         node.agg_func, node.agg_col,
                                         node.group_col);
      break;
    }
    case PlanKind::kNestLoopJoin: {
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> outer, left());
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> inner, right());
      op = std::make_unique<NestLoopJoinOp>(std::move(outer), std::move(inner),
                                            node.left_key, node.right_key);
      break;
    }
    case PlanKind::kMergeJoin: {
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> outer, left());
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> inner, right());
      op = std::make_unique<MergeJoinOp>(std::move(outer), std::move(inner),
                                         node.left_key, node.right_key);
      break;
    }
    case PlanKind::kHashJoin: {
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> outer, left());
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> inner, right());
      if (ctx.spill.temp_array != nullptr) {
        op = std::make_unique<GraceHashJoinOp>(std::move(outer),
                                               std::move(inner), node.left_key,
                                               node.right_key, ctx.spill);
      } else {
        op = std::make_unique<HashJoinOp>(std::move(outer), std::move(inner),
                                          node.left_key, node.right_key);
      }
      break;
    }
  }
  if (op == nullptr) return Status::Internal("unknown plan kind");
  return MaybeCancelGuard(MaybeProfile(std::move(op), &node, ctx.profile),
                          ctx.cancel);
}

StatusOr<std::unique_ptr<Operator>> BuildFragmentOperators(
    const FragmentGraph& graph, int frag_id,
    const std::map<int, const TempResult*>& inputs, const ExecContext& ctx,
    const GranuleSource& source) {
  const Fragment& frag = graph.fragment(frag_id);
  BlockedInputs blocked;
  for (const auto& [node, producer] : frag.blocked_inputs) {
    auto temp = inputs.find(producer);
    if (temp == inputs.end() || temp->second == nullptr)
      return Status::FailedPrecondition(
          StrFormat("fragment %d input (fragment %d) not materialized",
                    frag.id, producer));
    blocked[node] = temp->second;
  }
  return BuildOperators(*frag.root, ctx, blocked, source);
}

const PlanNode* DrivingLeaf(const FragmentGraph& graph, int frag_id) {
  const Fragment& frag = graph.fragment(frag_id);
  const PlanNode* node = frag.root;
  for (;;) {
    if (frag.blocked_inputs.count(node)) return node;
    switch (node->kind) {
      case PlanKind::kSeqScan:
      case PlanKind::kIndexScan:
        return node;
      default:
        node = node->left.get();
    }
  }
}

StatusOr<TempResult> ExecuteFragment(
    const FragmentGraph& graph, int frag_id,
    const std::map<int, const TempResult*>& inputs, const ExecContext& ctx) {
  XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> root,
                        BuildFragmentOperators(graph, frag_id, inputs, ctx));
  TempResult result;
  result.schema = graph.fragment(frag_id).root->output_schema;
  XPRS_ASSIGN_OR_RETURN(result.tuples, Drain(root.get()));
  return result;
}

StatusOr<std::vector<Tuple>> ExecutePlanFragmented(const PlanNode& plan,
                                                   const ExecContext& ctx) {
  FragmentGraph graph = FragmentGraph::Decompose(plan);
  std::map<int, TempResult> results;
  for (int id : graph.TopologicalOrder()) {
    std::map<int, const TempResult*> inputs;
    for (int dep : graph.fragment(id).deps) inputs[dep] = &results.at(dep);
    XPRS_ASSIGN_OR_RETURN(TempResult r,
                          ExecuteFragment(graph, id, inputs, ctx));
    results[id] = std::move(r);
  }
  return std::move(results.at(graph.root_fragment()).tuples);
}

}  // namespace xprs
