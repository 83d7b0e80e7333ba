//! Shared by the differential suites: run a query instrumented and check
//! that every shuffle it minted is attributed to exactly one `Exchange`.

use catalyst::physical::PhysicalPlan;
use spark_sql::prelude::*;

/// Collect `qe` (a query of `ctx`) and check shuffle attribution: the
/// shuffle ids recorded on Exchange nodes are disjoint, together they
/// cover every shuffle minted during the run, and no other node holds
/// one.
pub fn collect_attributed(ctx: &SQLContext, qe: &QueryExecution) -> Vec<Row> {
    let sc = ctx.spark_context();
    let first = sc.current_shuffle_id();
    let rows = qe.collect().expect("collect");
    let minted: Vec<usize> = (first..sc.current_shuffle_id()).collect();
    let mut exchange = Vec::new();
    preorder_exchanges(qe.physical(), &mut exchange);
    let mut recorded = Vec::new();
    for (id, is_exchange) in exchange.into_iter().enumerate() {
        let ids = qe.metrics().node(id).shuffle_ids();
        assert!(
            is_exchange || ids.is_empty(),
            "node {id} is no exchange but holds shuffles {ids:?}:\n{}",
            qe.physical()
        );
        recorded.extend(ids);
    }
    recorded.sort_unstable();
    assert_eq!(
        recorded,
        minted,
        "exchanges recorded shuffles that overlap or miss some:\n{}",
        qe.physical()
    );
    rows
}

/// Whether each node of `plan`, in pre-order, is an exchange.
fn preorder_exchanges(plan: &PhysicalPlan, out: &mut Vec<bool>) {
    out.push(matches!(plan, PhysicalPlan::Exchange { .. }));
    for child in plan.children() {
        preorder_exchanges(&child, out);
    }
}
