//! The neighbor relation of the solution supergraph (§7).
//!
//! For a minimal induced Steiner subgraph `X` and a non-terminal cut
//! vertex `v ∈ X ∖ W`, deleting `v` splits `G[X]` into **exactly two**
//! components `C₁, C₂` (three would give an induced claw at `v`). For each
//! attachment vertex `w ∈ N(C₁) ∖ {v}` the neighbor *with respect to
//! `(v, w)`* is
//!
//! ```text
//! C₁ʷ = μ(C₁ ∪ {w}, (W ∩ C₁) ∪ {w})
//! C₂ʷ = μ(C₂, W ∩ C₂)
//! P   = a shortest w-C₂ʷ path avoiding N(C₁ʷ) ∖ {w} (and C₁ʷ ∖ {w})
//! Z   = μ(C₁ʷ ∪ C₂ʷ ∪ V(P), W)      (undefined when no such P exists)
//! ```
//!
//! Lemma 41 shows this relation makes the supergraph strongly connected.
//! We generate candidates for both orderings `(C₁, C₂)` and `(C₂, C₁)`.
//!
//! **Erratum repair:** the strict avoidance of
//! `N(C₁ʷ) ∖ {w}` can block *every* `w`-`C₂ʷ` path — e.g. `C₆` with
//! terminals at distance 3: from `X = {0,3,4,5}`, every candidate pair
//! `(v, w)` has its only reconnecting path blocked, because μ shrinks `C₁`
//! and thereby grows the forbidden neighborhood (the step in Lemma 41's
//! proof asserting the `Y`-path avoids `N(C₁¹)` fails). We therefore also
//! emit a **relaxed** candidate per `(v, w)` that avoids only
//! `C₁ʷ ∖ {w}`; each extra candidate is still μ of a valid induced
//! Steiner subgraph (hence a genuine solution), and the widened relation
//! restores strong connectivity on the failing family. Property tests
//! compare the search against brute force on random claw-free graphs.

use crate::mu::mu;
use std::collections::BTreeSet;
use steiner_graph::{UndirectedGraph, VertexId};

/// Computes the two components of `G[X ∖ {v}]`. Panics if the count is not
/// exactly two — on claw-free inputs with `X` minimal it always is.
fn split_components(
    g: &UndirectedGraph,
    x: &[VertexId],
    v: VertexId,
) -> (Vec<VertexId>, Vec<VertexId>) {
    let n = g.num_vertices();
    let mut in_x = vec![false; n];
    for &u in x {
        in_x[u.index()] = true;
    }
    in_x[v.index()] = false;
    let mut comp_of = vec![usize::MAX; n];
    let mut comps: Vec<Vec<VertexId>> = Vec::new();
    for &start in x {
        if start == v || comp_of[start.index()] != usize::MAX {
            continue;
        }
        let id = comps.len();
        let mut stack = vec![start];
        comp_of[start.index()] = id;
        let mut members = Vec::new();
        while let Some(u) = stack.pop() {
            members.push(u);
            for (nb, _) in g.neighbors(u) {
                if in_x[nb.index()] && comp_of[nb.index()] == usize::MAX {
                    comp_of[nb.index()] = id;
                    stack.push(nb);
                }
            }
        }
        comps.push(members);
    }
    assert_eq!(
        comps.len(),
        2,
        "claw-free + minimal X: deleting a cut vertex leaves exactly two components"
    );
    let mut it = comps.into_iter();
    (
        it.next().expect("asserted exactly two components above"),
        it.next().expect("asserted exactly two components above"),
    )
}

/// The (deduplicated, sorted) neighbors of solution `x` in the supergraph.
pub fn neighbors_of(
    g: &UndirectedGraph,
    x: &[VertexId],
    terminals: &[VertexId],
) -> Vec<Vec<VertexId>> {
    let n = g.num_vertices();
    let mut is_terminal = vec![false; n];
    for &w in terminals {
        is_terminal[w.index()] = true;
    }
    let mut result: BTreeSet<Vec<VertexId>> = BTreeSet::new();
    for &v in x {
        if is_terminal[v.index()] {
            continue;
        }
        let (c1, c2) = split_components(g, x, v);
        for (first, second) in [(&c1, &c2), (&c2, &c1)] {
            candidates_for(g, terminals, &is_terminal, v, first, second, &mut result);
        }
    }
    result.into_iter().collect()
}

fn candidates_for(
    g: &UndirectedGraph,
    terminals: &[VertexId],
    is_terminal: &[bool],
    v: VertexId,
    c1: &[VertexId],
    c2: &[VertexId],
    result: &mut BTreeSet<Vec<VertexId>>,
) {
    let n = g.num_vertices();
    let mut in_c1 = vec![false; n];
    for &u in c1 {
        in_c1[u.index()] = true;
    }
    // N(C₁) ∖ {v}, deduplicated.
    let mut attachments: Vec<VertexId> = Vec::new();
    let mut seen = vec![false; n];
    for &u in c1 {
        for (nb, _) in g.neighbors(u) {
            if nb != v && !in_c1[nb.index()] && !seen[nb.index()] {
                seen[nb.index()] = true;
                attachments.push(nb);
            }
        }
    }
    attachments.sort_unstable();
    // Terminal subsets of the two components.
    let w_c1: Vec<VertexId> = c1
        .iter()
        .copied()
        .filter(|u| is_terminal[u.index()])
        .collect();
    let w_c2: Vec<VertexId> = c2
        .iter()
        .copied()
        .filter(|u| is_terminal[u.index()])
        .collect();
    let c2_min = mu(g, c2, &w_c2);
    for w in attachments {
        // C₁ʷ = μ(C₁ ∪ {w}, (W ∩ C₁) ∪ {w}).
        let mut c1_plus: Vec<VertexId> = c1.to_vec();
        c1_plus.push(w);
        let mut w1_plus = w_c1.clone();
        w1_plus.push(w);
        let c1w = mu(g, &c1_plus, &w1_plus);
        let mut in_c2w = vec![false; n];
        for &u in &c2_min {
            in_c2w[u.index()] = true;
        }
        // The paper's avoidance set B = N(C₁ʷ) ∖ {w}.
        let mut in_c1w = vec![false; n];
        for &u in &c1w {
            in_c1w[u.index()] = true;
        }
        let mut blockers: Vec<VertexId> = Vec::new();
        {
            let mut seen_b = vec![false; n];
            for &u in &c1w {
                for (nb, _) in g.neighbors(u) {
                    if nb != w && !in_c1w[nb.index()] && !seen_b[nb.index()] {
                        seen_b[nb.index()] = true;
                        blockers.push(nb);
                    }
                }
            }
            blockers.sort_unstable();
        }
        // Collect the distinct reconnecting paths across all avoidance
        // levels, then run μ once per distinct path. Levels: the paper's
        // full avoidance; each single blocker re-allowed (erratum repair —
        // this is what reaches the "long way around" solutions); and no
        // blocker avoidance at all. C₁ʷ ∖ {w} is always avoided.
        let mut paths: BTreeSet<Vec<VertexId>> = BTreeSet::new();
        let mut base_allowed = vec![true; n];
        for &u in &c1w {
            if u != w {
                base_allowed[u.index()] = false;
            }
        }
        let try_level =
            |relax: Option<VertexId>, all: bool, paths: &mut BTreeSet<Vec<VertexId>>| {
                let mut allowed = base_allowed.clone();
                if !all {
                    for &b in &blockers {
                        if Some(b) != relax {
                            allowed[b.index()] = false;
                        }
                    }
                }
                allowed[w.index()] = true;
                if let Some(path) = shortest_path_to_set(g, w, &in_c2w, &allowed) {
                    paths.insert(path);
                }
            };
        try_level(None, false, &mut paths); // the paper's rule
        try_level(None, true, &mut paths); // fully relaxed
        for &b in &blockers.clone() {
            try_level(Some(b), false, &mut paths); // one blocker re-allowed
        }
        for path in &paths {
            let mut union: Vec<VertexId> = c1w.clone();
            union.extend_from_slice(&c2_min);
            union.extend_from_slice(path);
            union.sort_unstable();
            union.dedup();
            let z = mu(g, &union, terminals);
            result.insert(z);
        }
        // Generous repair candidate: reconnect C₁ ∪ {w} to the *full* C₂
        // avoiding only C₁ ∪ {v}; μ minimizes globally afterwards. This
        // covers instances where μ's shrinking of C₂ leaves C₂ʷ
        // unreachable (second part of the Lemma 41 erratum).
        {
            let mut allowed = vec![true; n];
            for &u in c1 {
                allowed[u.index()] = false;
            }
            allowed[v.index()] = false;
            allowed[w.index()] = true;
            let mut in_c2 = vec![false; n];
            for &u in c2 {
                in_c2[u.index()] = true;
            }
            if let Some(path) = shortest_path_to_set(g, w, &in_c2, &allowed) {
                let mut union: Vec<VertexId> = c1.to_vec();
                union.push(w);
                union.extend_from_slice(c2);
                union.extend_from_slice(&path);
                union.sort_unstable();
                union.dedup();
                let z = mu(g, &union, terminals);
                result.insert(z);
            }
        }
    }
}

/// BFS shortest path from `start` to any vertex of `target` through
/// `allowed` vertices; returns the path's vertices (including both ends).
fn shortest_path_to_set(
    g: &UndirectedGraph,
    start: VertexId,
    target: &[bool],
    allowed: &[bool],
) -> Option<Vec<VertexId>> {
    if !allowed[start.index()] {
        return None;
    }
    if target[start.index()] {
        return Some(vec![start]);
    }
    let n = g.num_vertices();
    let mut parent: Vec<Option<VertexId>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[start.index()] = true;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        for (v, _) in g.neighbors(u) {
            if seen[v.index()] || !allowed[v.index()] {
                continue;
            }
            seen[v.index()] = true;
            parent[v.index()] = Some(u);
            if target[v.index()] {
                let mut path = vec![v];
                let mut cur = v;
                while let Some(p) = parent[cur.index()] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(v);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_minimal_induced_steiner_subgraph;

    #[test]
    fn split_two_components() {
        let g = UndirectedGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let x = [VertexId(0), VertexId(1), VertexId(2)];
        let (c1, c2) = split_components(&g, &x, VertexId(1));
        let mut sizes = [c1.len(), c2.len()];
        sizes.sort_unstable();
        assert_eq!(sizes, [1, 1]);
    }

    #[test]
    fn cycle_neighbors_flip_sides() {
        // C₅ (claw-free), terminals two adjacent vertices' opposite arc...
        // Take terminals {0, 2}: solutions are {0,1,2} and {0,4,3,2}.
        let g = steiner_graph::generators::cycle(5);
        let w = [VertexId(0), VertexId(2)];
        let x = vec![VertexId(0), VertexId(1), VertexId(2)];
        let nbrs = neighbors_of(&g, &x, &w);
        assert!(
            nbrs.contains(&vec![VertexId(0), VertexId(2), VertexId(3), VertexId(4)]),
            "the other side of the cycle is a neighbor: {nbrs:?}"
        );
        for z in &nbrs {
            assert!(is_minimal_induced_steiner_subgraph(&g, &w, z), "{z:?}");
        }
    }

    #[test]
    fn neighbors_are_minimal_on_random_claw_free() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xabcd);
        for _ in 0..20 {
            let g = steiner_graph::generators::random_claw_free(6, 8, &mut rng);
            let n = g.num_vertices();
            if n < 3 {
                continue;
            }
            let t = 2.min(n);
            let w = steiner_graph::generators::random_terminals(n, t, &mut rng);
            if !steiner_graph::connectivity::all_in_one_component(&g, &w, None) {
                continue;
            }
            let comp = steiner_graph::traversal::bfs(&g, &[w[0]], None);
            let x0: Vec<VertexId> = g.vertices().filter(|v| comp.visited[v.index()]).collect();
            let x = mu(&g, &x0, &w);
            for z in neighbors_of(&g, &x, &w) {
                assert!(
                    is_minimal_induced_steiner_subgraph(&g, &w, &z),
                    "graph {g:?} x {x:?} z {z:?}"
                );
                assert!(rng.gen_bool(1.0)); // keep rng used deterministically
            }
        }
    }
}
