//! Query routing: on-line multicast vs off-line pre-processing
//! (§3.3–3.4, Fig. 13).
//!
//! Both modes start at a random *home unit* ("a user sends a query
//! randomly to a storage unit", §2.2):
//!
//! * **On-line** — the home unit has no routing knowledge: it forwards
//!   to its father index unit, which "multicasts query messages to its
//!   father and sibling nodes" so every first-level group is consulted;
//!   target groups then probe their member units. Message-heavy.
//! * **Off-line** — "each storage unit locally maintains a replica of
//!   the semantic vectors of all index units": the home unit runs LSI
//!   over the request vector against the replicated first-level vectors
//!   and forwards the query straight to the most correlated index
//!   unit(s). One targeted hop instead of a flood.
//!
//! The functions here turn a tree [`Route`] plus per-unit probe work
//! into message counts and a critical-path latency under the
//! [`CostModel`]; parallel branches (multicast fan-out) overlap, serial
//! steps add.

use crate::tree::{Route, SemanticRTree};
use crate::unit::LocalWork;
use smartstore_simnet::CostModel;

/// Which query path is in force.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RouteMode {
    /// Multicast discovery (§3.3).
    Online,
    /// Replicated-index direct routing (§3.4).
    Offline,
}

impl RouteMode {
    /// Both modes.
    pub const ALL: [RouteMode; 2] = [RouteMode::Online, RouteMode::Offline];
}

impl std::fmt::Display for RouteMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RouteMode::Online => "on-line",
            RouteMode::Offline => "off-line",
        })
    }
}

/// Cost of one routed query.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryCost {
    /// Critical-path latency in nanoseconds.
    pub latency_ns: u64,
    /// Total network messages.
    pub messages: u64,
    /// Storage units that evaluated the query.
    pub units_probed: usize,
    /// First-level group hops beyond the first (Fig. 8 metric).
    pub group_hops: usize,
}

/// Size assumptions for query/response payloads (bytes).
const QUERY_BYTES: usize = 128;
const RESULT_BYTES: usize = 512;

/// Computes the cost of a complex (range/top-k) query.
///
/// `route` is the tree's routing answer; `unit_work` is the local probe
/// work actually performed per target unit; `n_groups` the number of
/// first-level index units in the system; `group_hops` the extra
/// first-level groups the query is sent to, which prices the off-line
/// path's group messages and is reported as the cost's `group_hops`.
pub fn complex_query_cost(
    mode: RouteMode,
    tree: &SemanticRTree,
    route: &Route,
    unit_work: &[(usize, LocalWork)],
    n_groups: usize,
    group_hops: usize,
    cost: &CostModel,
) -> QueryCost {
    let hop = cost.wire_ns(QUERY_BYTES);
    let reply = cost.wire_ns(RESULT_BYTES);
    let index_probe = cost.per_index_node_ns * route.nodes_visited as u64
        + cost.per_filter_ns * route.filters_probed as u64;
    // Max over parallel unit probes (units work concurrently), plus
    // dispatch at each.
    let max_unit_work = unit_work
        .iter()
        .map(|(_, w)| {
            cost.per_record_ns * w.records as u64
                + cost.per_filter_ns * w.filters as u64
                + cost.per_msg_cpu_ns
        })
        .max()
        .unwrap_or(0);
    let n_targets = unit_work.len() as u64;
    let target_groups = group_hops as u64 + 1;

    match mode {
        RouteMode::Online => {
            // client→home, home→father, father multicasts to its own
            // sibling *units* and to all other first-level groups
            // ("multicasts query messages to its father and sibling
            // nodes", §3.3.1), matching groups→member units,
            // units→home, home→client.
            let avg_group = (tree.node(tree.root()).leaf_count / n_groups.max(1)).max(1) as u64;
            let messages = 1 // client → home
                + 1 // home → its father index unit
                + avg_group // father → sibling units of the home leaf
                + (n_groups.saturating_sub(1)) as u64 // multicast to sibling groups
                + n_targets // group hosts → target units
                + n_targets // target units → home (results)
                + 1; // home → client
                     // Critical path: the multicast branches run in parallel.
            let latency = hop // client → home
                + hop // home → father
                + hop // father → farthest sibling group (parallel)
                + index_probe // index-unit MBR/filter checks
                + hop // group host → target unit (parallel)
                + max_unit_work
                + reply // unit → home
                + reply; // home → client
            QueryCost {
                latency_ns: latency,
                messages,
                units_probed: unit_work.len(),
                group_hops,
            }
        }
        RouteMode::Offline => {
            // Home performs a local LSI match over the replicated
            // first-level vectors (no network), then messages only the
            // target groups.
            let local_match = cost.per_index_node_ns * n_groups as u64;
            let messages = 1 // client → home
                + target_groups // home → target group hosts
                + n_targets // hosts → member units
                + n_targets // units → home
                + 1; // home → client
            let latency = hop // client → home
                + local_match
                + hop // home → target group host (parallel over groups)
                + index_probe.min(cost.per_index_node_ns * 4) // local subtree checks only
                + hop // host → unit
                + max_unit_work
                + reply
                + reply;
            QueryCost {
                latency_ns: latency,
                messages,
                units_probed: unit_work.len(),
                group_hops,
            }
        }
    }
}

/// Cost of a filename point query: Bloom-guided descent, then exact
/// lookup at the positive units.
///
/// Record accounting follows the *indexed-lookup* rule (see
/// [`LocalWork`]): each positive unit resolves the name through its
/// name→slot map, so `records` is 1 at a unit that holds the file and
/// 0 at a Bloom-false-positive unit — not the prefix-scan length the
/// pre-columnar store paid. Simulated point latencies are accordingly
/// lower than pre-columnar reports for the same trace. `group_hops` is
/// reported as is.
pub fn point_query_cost(
    route: &Route,
    unit_work: &[(usize, LocalWork)],
    group_hops: usize,
    cost: &CostModel,
) -> QueryCost {
    let hop = cost.wire_ns(QUERY_BYTES);
    let reply = cost.wire_ns(RESULT_BYTES);
    let filter_probes = cost.per_filter_ns * route.filters_probed as u64;
    let max_unit_work = unit_work
        .iter()
        .map(|(_, w)| cost.per_record_ns * w.records as u64 + cost.per_filter_ns * w.filters as u64)
        .max()
        .unwrap_or(0);
    let messages = 1 + route.target_units.len() as u64 * 2 + 1;
    let latency = hop + filter_probes + hop + max_unit_work + reply + reply;
    QueryCost {
        latency_ns: latency,
        messages,
        units_probed: unit_work.len(),
        group_hops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SmartStoreConfig;
    use crate::grouping::partition_balanced_flat;
    use crate::system::group_hops;
    use crate::unit::StorageUnit;
    use smartstore_trace::{GeneratorConfig, MetadataPopulation};

    fn fixture(n_units: usize) -> (SemanticRTree, Vec<StorageUnit>) {
        let pop = MetadataPopulation::generate(GeneratorConfig {
            n_files: n_units * 40,
            n_clusters: n_units,
            seed: 31,
            ..GeneratorConfig::default()
        });
        let table = smartstore_trace::attr_table(&pop.files);
        let assignment =
            partition_balanced_flat(&table, smartstore_trace::ATTR_DIMS, n_units, 3, 31);
        let mut buckets: Vec<Vec<smartstore_trace::FileMetadata>> = vec![Vec::new(); n_units];
        for (f, &a) in pop.files.into_iter().zip(assignment.iter()) {
            buckets[a].push(f);
        }
        let units: Vec<StorageUnit> = buckets
            .into_iter()
            .enumerate()
            .map(|(i, files)| StorageUnit::new(i, 1024, 7, files))
            .collect();
        let tree = SemanticRTree::build(&units, &SmartStoreConfig::default());
        (tree, units)
    }

    fn sample_route(
        tree: &SemanticRTree,
        units: &[StorageUnit],
    ) -> (Route, Vec<(usize, LocalWork)>) {
        // A narrow box around a single file so the route targets a small
        // subset of groups (offline beats online strictly only then; a
        // query spanning every group costs the same either way).
        let v = units[0].files()[0].attr_vector();
        let lo: Vec<f64> = v.iter().map(|x| x - 1e-6).collect();
        let hi: Vec<f64> = v.iter().map(|x| x + 1e-6).collect();
        let m = smartstore_rtree::Rect::new(lo, hi);
        let route = tree.route_range(m.lo(), m.hi());
        let work: Vec<(usize, LocalWork)> = route
            .target_units
            .iter()
            .map(|&u| {
                let (_, w) = units[u].range_query(m.lo(), m.hi());
                (u, w)
            })
            .collect();
        (route, work)
    }

    #[test]
    fn offline_sends_fewer_messages_than_online() {
        let (tree, units) = fixture(24);
        let (route, work) = sample_route(&tree, &units);
        let n_groups = tree.first_level_index_units().len();
        let cost = CostModel::default();
        let online = complex_query_cost(
            RouteMode::Online,
            &tree,
            &route,
            &work,
            n_groups,
            group_hops(&tree, &route.target_units),
            &cost,
        );
        let offline = complex_query_cost(
            RouteMode::Offline,
            &tree,
            &route,
            &work,
            n_groups,
            group_hops(&tree, &route.target_units),
            &cost,
        );
        assert!(
            online.messages > offline.messages,
            "online {} must exceed offline {}",
            online.messages,
            offline.messages
        );
    }

    #[test]
    fn offline_latency_not_worse() {
        let (tree, units) = fixture(24);
        let (route, work) = sample_route(&tree, &units);
        let n_groups = tree.first_level_index_units().len();
        let cost = CostModel::default();
        let online = complex_query_cost(
            RouteMode::Online,
            &tree,
            &route,
            &work,
            n_groups,
            group_hops(&tree, &route.target_units),
            &cost,
        );
        let offline = complex_query_cost(
            RouteMode::Offline,
            &tree,
            &route,
            &work,
            n_groups,
            group_hops(&tree, &route.target_units),
            &cost,
        );
        assert!(offline.latency_ns <= online.latency_ns);
    }

    #[test]
    fn online_messages_scale_with_group_count() {
        let (tree_s, units_s) = fixture(12);
        let (tree_l, units_l) = fixture(48);
        let cost = CostModel::default();
        let (rs, ws) = sample_route(&tree_s, &units_s);
        let (rl, wl) = sample_route(&tree_l, &units_l);
        let ms = complex_query_cost(
            RouteMode::Online,
            &tree_s,
            &rs,
            &ws,
            tree_s.first_level_index_units().len(),
            group_hops(&tree_s, &rs.target_units),
            &cost,
        );
        let ml = complex_query_cost(
            RouteMode::Online,
            &tree_l,
            &rl,
            &wl,
            tree_l.first_level_index_units().len(),
            group_hops(&tree_l, &rl.target_units),
            &cost,
        );
        assert!(
            ml.messages > ms.messages,
            "{} vs {}",
            ml.messages,
            ms.messages
        );
    }

    #[test]
    fn point_query_cost_counts_filters() {
        let (tree, units) = fixture(10);
        let name = units[2].files()[0].name.clone();
        let route = tree.route_point(&name);
        let work: Vec<(usize, LocalWork)> = route
            .target_units
            .iter()
            .map(|&u| {
                let (_, w) = units[u].point_query(&name);
                (u, w)
            })
            .collect();
        let hops = group_hops(&tree, &route.target_units);
        let qc = point_query_cost(&route, &work, hops, &CostModel::default());
        assert!(qc.latency_ns > 0);
        assert!(qc.messages >= 2);
        assert!(qc.units_probed >= 1);
    }

    #[test]
    fn empty_target_set_still_has_routing_cost() {
        let (tree, units) = fixture(10);
        let dim = units[0].centroid().len();
        // Far-away query box: routed nowhere.
        let lo = vec![1e9; dim];
        let hi = vec![1e9 + 1.0; dim];
        let route = tree.route_range(&lo, &hi);
        assert!(route.target_units.is_empty());
        let qc = complex_query_cost(
            RouteMode::Offline,
            &tree,
            &route,
            &[],
            tree.first_level_index_units().len(),
            0,
            &CostModel::default(),
        );
        assert!(qc.latency_ns > 0, "root check alone costs something");
        assert_eq!(qc.units_probed, 0);
    }
}
