#include "src/sched/hsfs.h"

#include <algorithm>

#include "src/common/assert.h"

namespace sfs::sched {

namespace {

// Weighted water-filling with per-item caps: shares proportional to `weights`,
// each clamped to `caps`, with the clamped surplus redistributed among the
// others.  Generalizes the paper's readjustment (Figure 2), where every cap is
// 1/p.  Returns fractions summing to min(1, sum(caps)).
std::vector<double> WaterFill(const std::vector<double>& weights, const std::vector<double>& caps) {
  SFS_CHECK(weights.size() == caps.size());
  const std::size_t n = weights.size();
  std::vector<double> shares(n, 0.0);
  std::vector<bool> pinned(n, false);
  double remaining = 1.0;
  for (std::size_t round = 0; round < n; ++round) {
    double free_weight = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!pinned[i]) {
        free_weight += weights[i];
      }
    }
    if (free_weight <= 0.0 || remaining <= 0.0) {
      break;
    }
    bool newly_pinned = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (pinned[i]) {
        continue;
      }
      const double proportional = remaining * weights[i] / free_weight;
      if (proportional > caps[i]) {
        shares[i] = caps[i];
        pinned[i] = true;
        remaining -= caps[i];
        newly_pinned = true;
      } else {
        shares[i] = proportional;
      }
    }
    if (!newly_pinned) {
      break;
    }
  }
  return shares;
}

}  // namespace

HierarchicalSfs::HierarchicalSfs(const SchedConfig& config)
    : Scheduler(config), arith_(config.fixed_point_digits) {
  auto root = std::make_unique<Node>();
  root->id = kRootClass;
  root->weight = 1.0;
  root->share = 1.0;
  root->members.SetBackend(config.queue_backend);
  nodes_.emplace(kRootClass, std::move(root));
}

HierarchicalSfs::~HierarchicalSfs() {
  for (auto& [id, node] : nodes_) {
    node->members.Clear();
  }
}

void HierarchicalSfs::CreateClass(ClassId id, ClassId parent, Weight weight) {
  SFS_CHECK(weight > 0);
  SFS_CHECK(nodes_.find(id) == nodes_.end());
  Node& parent_node = FindNode(parent);
  auto node = std::make_unique<Node>();
  node->id = id;
  node->parent = &parent_node;
  node->weight = weight;
  node->members.SetBackend(config().queue_backend);
  parent_node.children.push_back(node.get());
  nodes_.emplace(id, std::move(node));
  RecomputeShares();
}

void HierarchicalSfs::SetClassWeight(ClassId id, Weight weight) {
  SFS_CHECK(weight > 0);
  SFS_CHECK(id != kRootClass);
  FindNode(id).weight = weight;
  RecomputeShares();
}

void HierarchicalSfs::AddThreadToClass(ThreadId tid, Weight weight, ClassId cls) {
  RouteThread(tid, cls);
  AddThread(tid, weight);
}

void HierarchicalSfs::RouteThread(ThreadId tid, ClassId cls) {
  FindNode(cls);  // must exist
  routes_[tid] = cls;
}

Tick HierarchicalSfs::ClassService(ClassId cls) const { return FindNode(cls).total_service; }

double HierarchicalSfs::ClassShare(ClassId cls) const { return FindNode(cls).share; }

HierarchicalSfs::Node& HierarchicalSfs::FindNode(ClassId id) {
  auto it = nodes_.find(id);
  SFS_CHECK(it != nodes_.end());
  return *it->second;
}

const HierarchicalSfs::Node& HierarchicalSfs::FindNode(ClassId id) const {
  auto it = nodes_.find(id);
  SFS_CHECK(it != nodes_.end());
  return *it->second;
}

HierarchicalSfs::Node& HierarchicalSfs::NodeOf(const Entity& e) {
  auto it = thread_class_.find(e.tid);
  SFS_CHECK(it != thread_class_.end());
  return FindNode(it->second);
}

double HierarchicalSfs::LevelVirtualTime(const Node& n, const Node* exclude) const {
  double v = 0.0;
  bool any = false;
  for (const Node* child : n.children) {
    if (child == exclude || child->runnable_leaves == 0) {
      continue;
    }
    v = any ? std::min(v, child->start_tag) : child->start_tag;
    any = true;
  }
  // The member queue is sorted by start tag: the minimum is the front.
  if (const Entity* front = n.members.front(); front != nullptr) {
    v = any ? std::min(v, front->start_tag()) : front->start_tag();
    any = true;
  }
  return any ? v : n.idle_vt;
}

void HierarchicalSfs::RecomputeShares() {
  // Top-down DFS.  Participants at each node: child classes with runnable
  // leaves, plus runnable member threads.  Caps: a subtree with L runnable
  // leaves can use at most min(B, L) of the node's B processors-worth of
  // bandwidth.
  std::vector<Node*> stack;
  Node& root = FindNode(kRootClass);
  root.share = root.runnable_leaves > 0 ? 1.0 : 0.0;
  stack.push_back(&root);
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    const double bandwidth_cpus = n->share * static_cast<double>(num_cpus());

    std::vector<double> weights;
    std::vector<double> caps;
    std::vector<Node*> class_children;
    std::vector<Entity*> thread_members;
    for (Node* child : n->children) {
      if (child->runnable_leaves > 0) {
        class_children.push_back(child);
        weights.push_back(child->weight);
        caps.push_back(bandwidth_cpus > 0.0
                           ? std::min(1.0, static_cast<double>(child->runnable_leaves) /
                                               bandwidth_cpus)
                           : 0.0);
      } else {
        child->share = 0.0;
      }
    }
    for (Entity* e = n->members.front(); e != nullptr; e = n->members.next(e)) {
      thread_members.push_back(e);
      weights.push_back(e->weight());
      caps.push_back(bandwidth_cpus > 0.0 ? std::min(1.0, 1.0 / bandwidth_cpus) : 0.0);
    }

    const std::vector<double> shares = WaterFill(weights, caps);
    for (std::size_t i = 0; i < class_children.size(); ++i) {
      class_children[i]->share = n->share * shares[i];
      stack.push_back(class_children[i]);
    }
    for (std::size_t i = 0; i < thread_members.size(); ++i) {
      // Entity::phi holds the thread's share fraction *within its class level*;
      // tags advance by q/phi, so only intra-level ratios matter.
      const double phi = shares[class_children.size() + i];
      thread_members[i]->phi() = phi > 0.0 ? phi : thread_members[i]->weight();
    }
  }
}

void HierarchicalSfs::PropagateRunnable(Node& leaf_class, int delta) {
  for (Node* n = &leaf_class; n != nullptr; n = n->parent) {
    const bool was_empty = n->runnable_leaves == 0;
    n->runnable_leaves += delta;
    SFS_CHECK(n->runnable_leaves >= 0);
    if (was_empty && delta > 0 && n->parent != nullptr) {
      // (Re-)activation at the parent's level: the SFS wakeup rule, S = max(F, v),
      // which is also the arrival rule for a never-active class (F == 0 <= v).
      n->start_tag = std::max(n->finish_tag, LevelVirtualTime(*n->parent, n));
    }
    if (n->runnable_leaves == 0 && delta < 0 && n->parent != nullptr) {
      // Deactivation: freeze the parent's level virtual time fallback.
      n->parent->idle_vt = std::max(n->parent->idle_vt, n->finish_tag);
    }
  }
}

void HierarchicalSfs::PropagateEligible(Node& leaf_class, int delta) {
  for (Node* n = &leaf_class; n != nullptr; n = n->parent) {
    n->eligible_leaves += delta;
    SFS_CHECK(n->eligible_leaves >= 0);
  }
}

void HierarchicalSfs::PropagateService(Node& leaf_class, Tick ran) {
  for (Node* n = &leaf_class; n != nullptr; n = n->parent) {
    n->total_service += ran;
  }
}

void HierarchicalSfs::OnAdmit(Entity& e) {
  ClassId cls_id = kRootClass;
  if (auto it = routes_.find(e.tid); it != routes_.end()) {
    cls_id = it->second;
  }
  Node& cls = FindNode(cls_id);
  thread_class_[e.tid] = cls_id;
  e.start_tag() = std::max(e.finish_tag(), LevelVirtualTime(cls));
  e.finish_tag() = e.start_tag();
  cls.members.Insert(&e);
  PropagateRunnable(cls, +1);
  PropagateEligible(cls, +1);
  RecomputeShares();
}

void HierarchicalSfs::OnRemove(Entity& e) {
  Node& cls = NodeOf(e);
  if (e.runnable) {
    cls.members.Remove(&e);
    PropagateRunnable(cls, -1);
    PropagateEligible(cls, -1);
    RecomputeShares();
  }
  thread_class_.erase(e.tid);
}

void HierarchicalSfs::OnBlocked(Entity& e) {
  Node& cls = NodeOf(e);
  cls.members.Remove(&e);
  cls.idle_vt = std::max(cls.idle_vt, e.finish_tag());
  PropagateRunnable(cls, -1);
  PropagateEligible(cls, -1);
  RecomputeShares();
}

void HierarchicalSfs::OnWoken(Entity& e) {
  Node& cls = NodeOf(e);
  e.start_tag() = std::max(e.finish_tag(), LevelVirtualTime(cls));
  cls.members.Insert(&e);
  PropagateRunnable(cls, +1);
  PropagateEligible(cls, +1);
  RecomputeShares();
}

void HierarchicalSfs::OnWeightChanged(Entity& e, Weight old_weight) {
  (void)e;
  (void)old_weight;
  RecomputeShares();
}

Entity* HierarchicalSfs::PickNextEntity(CpuId cpu) {
  (void)cpu;
  Node* n = &FindNode(kRootClass);
  if (n->eligible_leaves == 0) {
    return nullptr;
  }
  for (;;) {
    const double v = LevelVirtualTime(*n);
    Node* best_class = nullptr;
    Entity* best_member = nullptr;
    double best_surplus = 0.0;
    auto better = [&best_surplus, &best_class, &best_member](double surplus) {
      return (best_class == nullptr && best_member == nullptr) || surplus < best_surplus;
    };
    for (Node* child : n->children) {
      if (child->eligible_leaves == 0) {
        continue;
      }
      const double phi = n->share > 0.0 ? child->share / n->share : child->weight;
      const double surplus = phi * (child->start_tag - v);
      if (better(surplus)) {
        best_surplus = surplus;
        best_class = child;
        best_member = nullptr;
      }
    }
    for (Entity* e = n->members.front(); e != nullptr; e = n->members.next(e)) {
      if (e->running) {
        continue;
      }
      const double surplus = e->phi() * (e->start_tag() - v);
      if (better(surplus)) {
        best_surplus = surplus;
        best_class = nullptr;
        best_member = e;
      }
    }
    if (best_member != nullptr) {
      PropagateEligible(NodeOf(*best_member), -1);
      return best_member;
    }
    if (best_class == nullptr) {
      return nullptr;  // racing counters should not allow this
    }
    n = best_class;
  }
}

void HierarchicalSfs::OnCharge(Entity& e, Tick ran_for) {
  Node& cls = NodeOf(e);
  // Thread tags within its class.
  e.finish_tag() = e.start_tag() + arith_.WeightedService(ran_for, std::max(e.phi(), 1e-12));
  e.start_tag() = e.finish_tag();
  // The start tag grew: restore the member queue's sorted order.
  cls.members.Remove(&e);
  cls.members.InsertFromBack(&e);
  // Every ancestor class's tags at its own level.
  for (Node* n = &cls; n->parent != nullptr; n = n->parent) {
    const double phi =
        n->parent->share > 0.0 && n->share > 0.0 ? n->share / n->parent->share : n->weight;
    n->finish_tag = n->start_tag + arith_.WeightedService(ran_for, std::max(phi, 1e-12));
    n->start_tag = n->finish_tag;
  }
  PropagateService(cls, ran_for);
  PropagateEligible(cls, +1);
}

CpuId HierarchicalSfs::SuggestPreemption(ThreadId woken, const std::vector<Tick>& elapsed) {
  // Reference implementation: no wakeup preemption across the hierarchy (class
  // surpluses live on different scales per level; a principled cross-level
  // comparison is future work).  Wakeups wait for the next scheduling point.
  (void)woken;
  (void)elapsed;
  return kInvalidCpu;
}

}  // namespace sfs::sched
