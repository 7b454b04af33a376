//! Property-based tests for the network substrate: topology generators and
//! the link model must uphold their structural invariants for any size and
//! seed.

use proptest::prelude::*;
use scoop_net::{
    FaultSchedule, LinkModel, Neighbor, NodePosition, StdTopologyGen, Topology, TopologyGen,
};
use scoop_types::{LinkSpec, NodeId, ScoopError, SimTime, TopologyKind, TopologySpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Office-floor topologies of any supported size are connected, have
    /// symmetric radio-range adjacency, and keep every sensor within a
    /// bounded number of hops of the basestation.
    #[test]
    fn office_floor_structural_invariants(nodes in 4usize..100, seed in 0u64..500) {
        let topo = Topology::office_floor(nodes, seed).expect("within limits");
        prop_assert_eq!(topo.len(), nodes + 1);
        prop_assert!(topo.is_connected());
        // Adjacency is symmetric because range is distance-based.
        for a in topo.nodes() {
            for &b in topo.neighbors(a) {
                prop_assert!(topo.in_range(b, a), "asymmetric adjacency {a} {b}");
            }
        }
        // Depth stays moderate: the generator aims for a multi-hop but not
        // degenerate network.
        prop_assert!(topo.network_depth() >= 1);
        prop_assert!(topo.network_depth() <= 16, "depth {}", topo.network_depth());
    }

    /// Hop distances satisfy the triangle inequality over the radio graph.
    #[test]
    fn hop_distance_triangle_inequality(seed in 0u64..100) {
        let topo = Topology::office_floor(20, seed).expect("topology");
        let nodes: Vec<NodeId> = topo.nodes().collect();
        for &a in nodes.iter().step_by(3) {
            for &b in nodes.iter().step_by(4) {
                for &c in nodes.iter().step_by(5) {
                    if let (Some(ab), Some(bc), Some(ac)) = (
                        topo.hop_distance(a, b),
                        topo.hop_distance(b, c),
                        topo.hop_distance(a, c),
                    ) {
                        prop_assert!(ac <= ab + bc, "{a}->{c} {ac} > {a}->{b} {ab} + {b}->{c} {bc}");
                    }
                }
            }
        }
    }

    /// Link delivery probabilities are always within [0, 1], dead outside
    /// radio range, and usable (eventually deliverable) within range.
    #[test]
    fn link_model_probability_bounds(nodes in 4usize..60, seed in 0u64..300) {
        let topo = Topology::office_floor(nodes, seed).expect("topology");
        let links = LinkModel::from_spec(&LinkSpec::default(), &topo, seed).unwrap();
        for a in topo.nodes() {
            for b in topo.nodes() {
                let q = links.link(a, b);
                prop_assert!((0.0..=1.0).contains(&q.delivery_prob));
                if a == b {
                    prop_assert!(!q.is_usable());
                } else if topo.in_range(a, b) {
                    prop_assert!(q.is_usable(), "in-range link {a}->{b} must be usable");
                    prop_assert!(q.etx() >= 1.0);
                } else {
                    prop_assert!(!q.is_usable(), "out-of-range link {a}->{b} must be dead");
                }
            }
        }
    }

    /// Grid topologies have the expected regular structure regardless of
    /// spacing.
    #[test]
    fn grid_structure(side in 2usize..8, spacing in 1.0f64..50.0) {
        let topo = Topology::grid(side, spacing).expect("grid");
        prop_assert_eq!(topo.len(), side * side);
        prop_assert!(topo.is_connected());
        // Corner nodes always have exactly 3 neighbors.
        prop_assert_eq!(topo.neighbors(NodeId(0)).len(), 3);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine's CSR neighbor table visits exactly the nodes the
    /// historical dense-row scan visited — same set, same ascending order,
    /// same (pre-clamped) delivery probabilities — for every placement
    /// family, node count, and seed. This is the structural half of the
    /// byte-identical-RNG guarantee: one `gen_bool` per listed neighbor in
    /// listing order reproduces the old random stream exactly.
    #[test]
    fn csr_neighbor_table_matches_dense_row_scan(
        kind_index in 0usize..TopologyKind::ALL.len(),
        nodes in 2usize..80,
        seed in 0u64..200,
    ) {
        let spec = TopologySpec {
            kind: TopologyKind::ALL[kind_index],
            ..TopologySpec::office_floor()
        };
        let topo = StdTopologyGen.generate(&spec, nodes, seed).expect("within limits");
        let links = LinkModel::from_spec(&LinkSpec::default(), &topo, seed).unwrap();
        for a in topo.nodes() {
            // The old dense scan, reimplemented verbatim as the oracle.
            let dense: Vec<Neighbor> = (0..links.len())
                .map(|i| NodeId(i as u16))
                .filter(|&m| m != a && links.link(a, m).is_usable())
                .map(|m| Neighbor {
                    node: m,
                    delivery_prob: links.link(a, m).delivery_prob.clamp(0.0, 1.0),
                })
                .collect();
            prop_assert_eq!(
                links.neighbors(a), dense.as_slice(),
                "CSR row of {} diverges from the dense scan ({:?}, {} nodes, seed {})",
                a, spec.kind, nodes, seed
            );
        }
    }

    /// Reliability is monotone in the loss floor: with everything else held
    /// fixed (topology, seed — hence the exact same per-pair noise draws —
    /// edge delivery, exponent, noise level), lowering `loss_floor` toward 0
    /// never lowers any directed link's delivery probability, for every
    /// topology kind. This is the soundness property the calibration
    /// subsystem leans on when it reads the grid: gentler floors cannot
    /// secretly hurt delivery.
    #[test]
    fn delivery_is_monotone_as_loss_floor_falls(
        kind_index in 0usize..TopologyKind::ALL.len(),
        nodes in 4usize..48,
        seed in 0u64..200,
        floor_harsh in 0.05f64..0.8,
        floor_scale in 0.0f64..1.0,
    ) {
        let spec = TopologySpec {
            kind: TopologyKind::ALL[kind_index],
            ..TopologySpec::office_floor()
        };
        let topo = StdTopologyGen.generate(&spec, nodes, seed).expect("within limits");
        let defaults = LinkSpec::default();
        let harsh_spec = LinkSpec {
            loss_floor: floor_harsh,
            edge_delivery: defaults.edge_delivery.min(1.0 - floor_harsh),
            ..defaults
        };
        let gentle_spec = LinkSpec {
            loss_floor: floor_harsh * floor_scale,
            ..harsh_spec
        };
        let harsh = LinkModel::from_spec(&harsh_spec, &topo, seed).expect("valid spec");
        let gentle = LinkModel::from_spec(&gentle_spec, &topo, seed).expect("valid spec");
        for a in topo.nodes() {
            for b in topo.nodes() {
                prop_assert!(
                    gentle.link(a, b).delivery_prob >= harsh.link(a, b).delivery_prob,
                    "lowering loss_floor {floor_harsh} -> {} reduced delivery {a}->{b}",
                    gentle_spec.loss_floor
                );
            }
        }
        prop_assert!(gentle.mean_loss() <= harsh.mean_loss());
    }

    /// Reliability is monotone in the edge delivery: raising `edge_delivery`
    /// toward 1 (capped by `1 - loss_floor`) never lowers any directed
    /// link's delivery probability, for every topology kind.
    #[test]
    fn delivery_is_monotone_as_edge_delivery_rises(
        kind_index in 0usize..TopologyKind::ALL.len(),
        nodes in 4usize..48,
        seed in 0u64..200,
        floor in 0.0f64..0.5,
        edge_low in 0.01f64..0.4,
        edge_lift in 0.0f64..1.0,
    ) {
        let spec = TopologySpec {
            kind: TopologyKind::ALL[kind_index],
            ..TopologySpec::office_floor()
        };
        let topo = StdTopologyGen.generate(&spec, nodes, seed).expect("within limits");
        let low_spec = LinkSpec {
            loss_floor: floor,
            edge_delivery: edge_low.min(1.0 - floor),
            ..LinkSpec::default()
        };
        let high_spec = LinkSpec {
            edge_delivery: low_spec.edge_delivery
                + edge_lift * (1.0 - floor - low_spec.edge_delivery),
            ..low_spec
        };
        let low = LinkModel::from_spec(&low_spec, &topo, seed).expect("valid spec");
        let high = LinkModel::from_spec(&high_spec, &topo, seed).expect("valid spec");
        for a in topo.nodes() {
            for b in topo.nodes() {
                prop_assert!(
                    high.link(a, b).delivery_prob >= low.link(a, b).delivery_prob,
                    "raising edge_delivery {} -> {} reduced delivery {a}->{b}",
                    low_spec.edge_delivery, high_spec.edge_delivery
                );
            }
        }
        prop_assert!(high.mean_loss() <= low.mean_loss());
    }

    /// Adversarially *extreme but valid* LinkSpec values — floors at the top
    /// of the range, edge deliveries near the cap, exponents up to the
    /// maximum, huge asymmetry noise — always yield a CSR neighbor table
    /// whose pre-clamped probabilities land in [0, 1], for every topology
    /// kind. The engine samples these without a per-draw clamp, so an
    /// out-of-range entry here would corrupt the loss model silently.
    #[test]
    fn csr_probabilities_stay_in_unit_range_for_extreme_specs(
        kind_index in 0usize..TopologyKind::ALL.len(),
        nodes in 2usize..40,
        seed in 0u64..200,
        floor in 0.0f64..0.89,
        exponent in 0.05f64..64.0,
        noise in 0.0f64..10.0,
    ) {
        let spec = TopologySpec {
            kind: TopologyKind::ALL[kind_index],
            ..TopologySpec::office_floor()
        };
        let topo = StdTopologyGen.generate(&spec, nodes, seed).expect("within limits");
        let link_spec = LinkSpec {
            loss_floor: floor,
            edge_delivery: (1.0 - floor).min(0.99),
            distance_exponent: exponent,
            asymmetry_noise: noise,
            ..LinkSpec::default()
        };
        link_spec.validate().expect("spec is in the valid range");
        let links = LinkModel::from_spec(&link_spec, &topo, seed).expect("valid spec");
        for a in topo.nodes() {
            for nb in links.neighbors(a) {
                prop_assert!(
                    (0.0..=1.0).contains(&nb.delivery_prob) && nb.delivery_prob > 0.0,
                    "CSR entry {a}->{} carries probability {}",
                    nb.node, nb.delivery_prob
                );
                prop_assert!(nb.delivery_prob.is_finite());
            }
        }
    }

    /// The spec-driven generator — the path `SimBuilder` builds every
    /// experiment through — yields a connected topology for *every* placement
    /// family at any supported node count and seed: the basestation (node 0)
    /// is reachable from every node.
    #[test]
    fn every_topology_spec_is_connected(
        kind_index in 0usize..TopologyKind::ALL.len(),
        nodes in 2usize..120,
        seed in 0u64..300,
    ) {
        let spec = TopologySpec {
            kind: TopologyKind::ALL[kind_index],
            ..TopologySpec::office_floor()
        };
        let topo = StdTopologyGen.generate(&spec, nodes, seed).expect("within limits");
        prop_assert_eq!(topo.len(), nodes + 1);
        prop_assert!(topo.is_connected(), "{:?} disconnected at {} nodes seed {}",
            spec.kind, nodes, seed);
        for n in topo.nodes() {
            prop_assert!(
                topo.hop_distance(n, NodeId::BASESTATION).is_some(),
                "node {n} cannot reach the basestation ({:?}, {} nodes, seed {})",
                spec.kind, nodes, seed
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Overlapping partition cuts union: a pair is severed at `t` iff at
    /// least one cut, applied alone, severs it at `t`. Composing cuts can
    /// only widen the blackout — never narrow, shift, or cancel it — for
    /// any mix of windows (overlapping, nested, disjoint, inverted) and any
    /// side assignment, including degenerate all-on-one-side cuts.
    #[test]
    fn partition_cuts_union_like_their_singletons(
        cuts in proptest::collection::vec(
            (
                0u64..120,
                0u64..120,
                proptest::collection::vec((0u8..2).prop_map(|b| b == 1), 2..10),
            ),
            1..5,
        ),
        probe_t in 0u64..140,
    ) {
        let mut combined = FaultSchedule::empty();
        let mut singles = Vec::new();
        for (a, b, side) in &cuts {
            let (from, until) = (SimTime::from_secs(*a), SimTime::from_secs(*b));
            combined.add_partition(from, until, side.clone());
            let mut single = FaultSchedule::empty();
            single.add_partition(from, until, side.clone());
            singles.push(single);
        }
        let t = SimTime::from_secs(probe_t);
        // Probe every pair, including ids beyond the side vectors (which
        // belong to the majority side by definition).
        let n = cuts.iter().map(|(_, _, s)| s.len()).max().unwrap_or(0) as u16 + 2;
        for i in 0..n {
            for j in 0..n {
                let expected = singles.iter().any(|s| s.is_cut(NodeId(i), NodeId(j), t));
                prop_assert_eq!(
                    combined.is_cut(NodeId(i), NodeId(j), t), expected,
                    "pair ({i}, {j}) at t={probe_t}: union diverges from singleton OR"
                );
                prop_assert_eq!(
                    combined.is_cut(NodeId(i), NodeId(j), t),
                    combined.is_cut(NodeId(j), NodeId(i), t),
                    "cuts must stay symmetric"
                );
            }
        }
    }
}

/// The naive oracle the single-BFS primitive replaced: a fresh
/// level-by-level BFS from `from`, stopping as soon as it reaches `to`.
fn oracle_hops(topo: &Topology, from: NodeId, to: NodeId) -> Option<u32> {
    let mut seen = vec![false; topo.len()];
    seen[from.index()] = true;
    let mut frontier = vec![from];
    let mut depth = 0;
    while !frontier.is_empty() {
        if frontier.contains(&to) {
            return Some(depth);
        }
        let mut next = Vec::new();
        for n in frontier {
            for &m in topo.neighbors(n) {
                if !seen[m.index()] {
                    seen[m.index()] = true;
                    next.push(m);
                }
            }
        }
        frontier = next;
        depth += 1;
    }
    None
}

/// Checks `hops_from`, `hop_distance`, `is_connected` and `network_depth`
/// against one oracle BFS per ordered pair.
fn assert_matches_oracle(topo: &Topology) {
    let oracle_base: Vec<Option<u32>> = topo
        .nodes()
        .map(|n| oracle_hops(topo, NodeId::BASESTATION, n))
        .collect();
    assert_eq!(
        topo.is_connected(),
        oracle_base.iter().all(Option::is_some),
        "{:?} with {} nodes",
        topo.kind(),
        topo.len()
    );
    assert_eq!(
        topo.network_depth(),
        oracle_base.iter().flatten().copied().max().unwrap_or(0),
        "depth counts reachable nodes only"
    );
    for a in topo.nodes() {
        let hops = topo.hops_from(a);
        assert_eq!(hops.len(), topo.len());
        for b in topo.nodes() {
            let oracle = oracle_hops(topo, a, b);
            assert_eq!(hops[b.index()], oracle.unwrap_or(u32::MAX), "{a} -> {b}");
            assert_eq!(topo.hop_distance(a, b), oracle, "{a} -> {b}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every placement family, thinned or thickened until some instances
    /// fall apart, agrees with the per-pair oracle on connectivity, depth
    /// and every pairwise hop count.
    #[test]
    fn hop_queries_match_the_per_pair_bfs_oracle(
        kind_index in 0usize..TopologyKind::ALL.len(),
        nodes in 2usize..60,
        seed in 0u64..500,
        range_factor in 0.3f64..1.6,
    ) {
        let spec = TopologySpec {
            kind: TopologyKind::ALL[kind_index],
            range_factor,
            ..TopologySpec::office_floor()
        };
        assert_matches_oracle(&Topology::from_spec(&spec, nodes, seed).expect("within limits"));
    }
}

/// Hand-built disconnected layouts: the oracle agrees, and depth ignores
/// nodes the basestation cannot reach even when they sit deeper than
/// everything it can.
#[test]
fn disconnected_layouts_match_the_oracle() {
    let build = |xs: &[f64]| {
        let positions = xs.iter().map(|&x| NodePosition { x, y: 0.0 }).collect();
        Topology::from_positions(TopologyKind::Linear, positions, 10.0).expect("layout")
    };
    // Two islands: the basestation's has depth 2; the far one is a deeper
    // five-node chain.
    let islands = build(&[0.0, 10.0, 20.0, 100.0, 110.0, 120.0, 130.0, 140.0]);
    // One isolated sensor beyond a three-hop chain.
    let lone_sensor = build(&[0.0, 10.0, 20.0, 30.0, 500.0]);
    // An isolated basestation next to a connected sensor chain.
    let lone_base = build(&[-500.0, 0.0, 10.0, 20.0]);
    for (topo, depth) in [(&islands, 2), (&lone_sensor, 3), (&lone_base, 0)] {
        assert!(!topo.is_connected());
        assert_eq!(topo.network_depth(), depth);
        assert_matches_oracle(topo);
    }
    assert_eq!(islands.hop_distance(NodeId(3), NodeId(7)), Some(4));
    assert_eq!(islands.hops_from(NodeId::BASESTATION)[3], u32::MAX);
    assert_eq!(lone_base.hop_distance(NodeId(1), NodeId(3)), Some(2));
    assert_eq!(lone_sensor.hops_from(NodeId(99)), vec![u32::MAX; 5]);
}

/// The connectivity check behind range escalation is one BFS, so the
/// largest supported grid generates quickly even in a debug build; a check
/// quadratic in the node count would take minutes here.
#[test]
fn max_size_grid_generates_connected_in_one_pass() {
    let topo = StdTopologyGen
        .generate(&TopologySpec::grid(), 32_767, 1)
        .expect("within limits");
    assert_eq!(topo.len(), 32_768);
    assert!(topo.is_connected());
    assert!(topo.network_depth() > 0);
}

/// Adversarial *invalid* LinkSpec values — NaN, negative, infinite, or
/// absurdly large knobs — are rejected by `LinkModel::from_spec` with a
/// typed `ScoopError::InvalidConfig`, never a panic and never a silently
/// NaN-ridden link table.
#[test]
fn adversarial_link_specs_get_typed_errors_not_panics() {
    let topo = Topology::grid(4, 10.0).expect("grid");
    let poisons: &[fn(&mut LinkSpec)] = &[
        |l| l.loss_floor = f64::NAN,
        |l| l.loss_floor = -0.2,
        |l| l.loss_floor = 1.0,
        |l| l.loss_floor = f64::INFINITY,
        |l| l.edge_delivery = f64::NAN,
        |l| l.edge_delivery = 0.0,
        |l| l.edge_delivery = -1.0,
        |l| l.edge_delivery = 2.0,
        |l| l.distance_exponent = f64::NAN,
        |l| l.distance_exponent = 0.0,
        |l| l.distance_exponent = -3.0,
        |l| l.distance_exponent = f64::INFINITY,
        |l| l.distance_exponent = 1e9,
        |l| l.asymmetry_noise = f64::NAN,
        |l| l.asymmetry_noise = -0.5,
        |l| l.asymmetry_noise = f64::INFINITY,
    ];
    for (i, poison) in poisons.iter().enumerate() {
        let mut spec = LinkSpec::default();
        poison(&mut spec);
        match LinkModel::from_spec(&spec, &topo, 1) {
            Err(ScoopError::InvalidConfig(_)) => {}
            other => panic!(
                "poisoned spec #{i} ({spec:?}) must yield InvalidConfig, got {:?}",
                other.map(|m| m.len())
            ),
        }
    }
    // The boundary itself stays accepted.
    let spec = LinkSpec {
        distance_exponent: LinkSpec::MAX_DISTANCE_EXPONENT,
        ..LinkSpec::default()
    };
    assert!(LinkModel::from_spec(&spec, &topo, 1).is_ok());
}
