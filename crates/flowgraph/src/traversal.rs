use std::collections::VecDeque;

use crate::dag::{Dag, NodeId};
use crate::error::GraphError;

impl<N, E> Dag<N, E> {
    /// Returns a topological order of all nodes (Kahn's algorithm).
    ///
    /// Ties are broken by insertion order, so the result is
    /// deterministic: among ready nodes the earliest-inserted comes
    /// first. This matters for reproducing the paper's figures, where
    /// planning and execution enumerate activities in a stable order.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::CycleDetected`] if the graph contains a
    /// cycle (impossible for graphs built through
    /// [`add_edge`](Dag::add_edge), which checks incrementally).
    pub fn topological_order(&self) -> Result<Vec<NodeId>, GraphError> {
        let mut in_deg: Vec<usize> = self.node_ids().map(|n| self.in_degree(n)).collect();
        // A BinaryHeap of Reverse would also work; a scan-free queue of
        // ready nodes kept sorted by id is enough because ids are dense
        // and we push in increasing discovery order.
        let mut ready: VecDeque<NodeId> =
            self.node_ids().filter(|n| in_deg[n.index()] == 0).collect();
        let mut order = Vec::with_capacity(self.node_count());
        while let Some(v) = ready.pop_front() {
            order.push(v);
            for succ in self.successors(v) {
                in_deg[succ.index()] -= 1;
                if in_deg[succ.index()] == 0 {
                    ready.push_back(succ);
                }
            }
        }
        if order.len() == self.node_count() {
            Ok(order)
        } else {
            let on = self
                .node_ids()
                .find(|n| in_deg[n.index()] > 0)
                .expect("some node must have remaining in-degree");
            Err(GraphError::CycleDetected { on })
        }
    }

    /// Post-order traversal from `roots`: every node appears after all
    /// of the nodes it depends on (its predecessors in the cone).
    ///
    /// This is exactly the walk Hercules performs both to *plan* a
    /// schedule ("running from primary inputs to outputs, creating new
    /// schedule instances for each activity") and to *execute* a task
    /// tree. Only nodes in the union of the roots' input cones are
    /// visited; each exactly once, in deterministic order.
    ///
    /// # Panics
    ///
    /// Panics if any root is not a node of this graph.
    pub fn post_order(&self, roots: &[NodeId]) -> Vec<NodeId> {
        let mut visited = vec![false; self.node_count()];
        let mut order = Vec::new();
        // Iterative DFS on predecessor edges with an explicit phase so
        // deep flows cannot overflow the call stack.
        enum Phase {
            Enter,
            Exit,
        }
        for &root in roots {
            assert!(self.contains_node(root), "unknown root {root}");
            if visited[root.index()] {
                continue;
            }
            let mut stack = vec![(root, Phase::Enter)];
            while let Some((v, phase)) = stack.pop() {
                match phase {
                    Phase::Enter => {
                        if visited[v.index()] {
                            continue;
                        }
                        visited[v.index()] = true;
                        stack.push((v, Phase::Exit));
                        // Push predecessors in reverse so the first
                        // predecessor is processed first.
                        let preds: Vec<_> = self.predecessors(v).collect();
                        for &p in preds.iter().rev() {
                            if !visited[p.index()] {
                                stack.push((p, Phase::Enter));
                            }
                        }
                    }
                    Phase::Exit => order.push(v),
                }
            }
        }
        order
    }

    /// Depth-first pre-order over successors starting from `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a node of this graph.
    pub fn dfs(&self, start: NodeId) -> Dfs {
        assert!(self.contains_node(start), "unknown start {start}");
        let mut visited = vec![false; self.node_count()];
        visited[start.index()] = true;
        Dfs {
            stack: vec![start],
            visited,
        }
    }

    /// Breadth-first order over successors starting from `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a node of this graph.
    pub fn bfs(&self, start: NodeId) -> Bfs {
        assert!(self.contains_node(start), "unknown start {start}");
        let mut visited = vec![false; self.node_count()];
        visited[start.index()] = true;
        Bfs {
            queue: VecDeque::from([start]),
            visited,
        }
    }
}

/// Iterator state for [`Dag::dfs`]. Advance it with
/// [`next_in`](Dfs::next_in), passing the graph each step.
#[derive(Debug, Clone)]
pub struct Dfs {
    stack: Vec<NodeId>,
    visited: Vec<bool>,
}

impl Dfs {
    /// Returns the next node in depth-first pre-order, or `None` when
    /// exhausted.
    pub fn next_in<N, E>(&mut self, graph: &Dag<N, E>) -> Option<NodeId> {
        let v = self.stack.pop()?;
        let succs: Vec<_> = graph.successors(v).collect();
        for &s in succs.iter().rev() {
            if !self.visited[s.index()] {
                self.visited[s.index()] = true;
                self.stack.push(s);
            }
        }
        Some(v)
    }

    /// Drains the traversal into a vector.
    pub fn collect_in<N, E>(mut self, graph: &Dag<N, E>) -> Vec<NodeId> {
        let mut out = Vec::new();
        while let Some(v) = self.next_in(graph) {
            out.push(v);
        }
        out
    }
}

/// Iterator state for [`Dag::bfs`]. Advance it with
/// [`next_in`](Bfs::next_in), passing the graph each step.
#[derive(Debug, Clone)]
pub struct Bfs {
    queue: VecDeque<NodeId>,
    visited: Vec<bool>,
}

impl Bfs {
    /// Returns the next node in breadth-first order, or `None` when
    /// exhausted.
    pub fn next_in<N, E>(&mut self, graph: &Dag<N, E>) -> Option<NodeId> {
        let v = self.queue.pop_front()?;
        for s in graph.successors(v) {
            if !self.visited[s.index()] {
                self.visited[s.index()] = true;
                self.queue.push_back(s);
            }
        }
        Some(v)
    }

    /// Drains the traversal into a vector.
    pub fn collect_in<N, E>(mut self, graph: &Dag<N, E>) -> Vec<NodeId> {
        let mut out = Vec::new();
        while let Some(v) = self.next_in(graph) {
            out.push(v);
        }
        out
    }
}

/// Convenience alias documenting the planning/execution walk.
///
/// Hercules' planning step is a post-order traversal of the task tree;
/// this type re-exports the result of [`Dag::post_order`] under the name
/// the paper uses.
pub type PostOrder = Vec<NodeId>;

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Dag<&'static str, ()>, [NodeId; 4]) {
        let mut g = Dag::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, ()).unwrap();
        g.add_edge(a, c, ()).unwrap();
        g.add_edge(b, d, ()).unwrap();
        g.add_edge(c, d, ()).unwrap();
        (g, [a, b, c, d])
    }

    fn is_topological<N, E>(g: &Dag<N, E>, order: &[NodeId]) -> bool {
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        g.edges().all(|e| pos[&e.from] < pos[&e.to])
    }

    #[test]
    fn topological_order_respects_edges() {
        let (g, _) = diamond();
        let order = g.topological_order().unwrap();
        assert_eq!(order.len(), 4);
        assert!(is_topological(&g, &order));
    }

    #[test]
    fn topological_order_is_deterministic() {
        let (g, _) = diamond();
        assert_eq!(
            g.topological_order().unwrap(),
            g.topological_order().unwrap()
        );
    }

    #[test]
    fn topological_order_empty() {
        let g: Dag<(), ()> = Dag::new();
        assert!(g.topological_order().unwrap().is_empty());
    }

    #[test]
    fn post_order_visits_dependencies_first() {
        let (g, [a, b, c, d]) = diamond();
        let order = g.post_order(&[d]);
        assert_eq!(order.len(), 4);
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        assert!(pos[&a] < pos[&b]);
        assert!(pos[&a] < pos[&c]);
        assert!(pos[&b] < pos[&d]);
        assert!(pos[&c] < pos[&d]);
        assert_eq!(order.last(), Some(&d));
    }

    #[test]
    fn post_order_limits_to_cone() {
        let (mut g, [_a, b, _c, _d]) = diamond();
        let lonely = g.add_node("x");
        let order = g.post_order(&[b]);
        assert!(!order.contains(&lonely));
        assert_eq!(order.len(), 2); // a, b
    }

    #[test]
    fn post_order_multiple_roots_no_duplicates() {
        let (g, [_, b, c, _]) = diamond();
        let order = g.post_order(&[b, c]);
        assert_eq!(order.len(), 3); // a, b, c — a visited once
        let unique: std::collections::HashSet<_> = order.iter().collect();
        assert_eq!(unique.len(), order.len());
    }

    #[test]
    fn post_order_deep_chain_no_stack_overflow() {
        let mut g: Dag<(), ()> = Dag::new();
        let ids: Vec<_> = (0..100_000).map(|_| g.add_node(())).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], ()).unwrap();
        }
        let order = g.post_order(&[*ids.last().unwrap()]);
        assert_eq!(order.len(), ids.len());
        assert_eq!(order[0], ids[0]);
    }

    #[test]
    fn dfs_covers_reachable_set() {
        let (g, [a, ..]) = diamond();
        let seen = g.dfs(a).collect_in(&g);
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[0], a);
    }

    #[test]
    fn bfs_layers() {
        let (g, [a, b, c, d]) = diamond();
        let seen = g.bfs(a).collect_in(&g);
        assert_eq!(seen, vec![a, b, c, d]);
    }

    #[test]
    fn dfs_from_sink_sees_only_itself() {
        let (g, [.., d]) = diamond();
        assert_eq!(g.dfs(d).collect_in(&g), vec![d]);
    }
}
