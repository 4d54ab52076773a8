//! The workflow text format and impact analysis: load a workflow from its
//! textual form, optimize it, save the optimized state, and analyze what a
//! source schema change would break.
//!
//! Run with `cargo run --example workflow_text`.

use etlopt::core::impact::{analyze, lineage, Change};
use etlopt::core::text;
use etlopt::prelude::*;

const WORKFLOW: &str = r#"
# Order consolidation: two regional systems into one warehouse table.
source "ORDERS_EU" table rows=12000 (order_id, day, amount)
source "ORDERS_US" table rows=20000 (order_id, day, usd_amount)

activity a1 "NN-eu"  = not_null(amount) sel=0.97        <- "ORDERS_EU"
activity a2 "$2E"    = function dollar2euro(usd_amount) -> amount <- "ORDERS_US"
activity a3 "A2E"    = function am2eu(day) -> day       <- a2
activity a4 "U"      = union                            <- a1, a3
activity a5 "SK"     = surrogate_key order_id -> order_sk via "DIM_ORDERS" <- a4
activity a6 "σ-load" = filter amount > 250.0 sel=0.15   <- a5

target "DW_ORDERS" table (day, amount, order_sk) <- a6
"#;

fn main() {
    // 1. Load.
    let workflow = text::parse(WORKFLOW).expect("workflow text parses");
    println!("loaded workflow {}", workflow.signature());
    print!("{}", workflow.pretty());

    // 2. Optimize and save the optimized state back to text.
    let model = RowCountModel::default();
    let out = HeuristicSearch::new()
        .run(&workflow, &model)
        .expect("HS runs");
    println!(
        "\noptimized: cost {:.0} -> {:.0} ({:.1}%)",
        out.initial_cost,
        out.best_cost,
        out.improvement_pct()
    );
    // Every optimizer returns a split workflow, so the result renders as is.
    let saved = text::render(&out.best).expect("optimized state renders");
    println!("\n--- optimized workflow, as text ---\n{saved}");

    // Round-trip sanity: the saved text parses to an equivalent workflow.
    let reloaded = text::parse(&saved).expect("saved text parses");
    assert!(etlopt::core::postcond::equivalent(&out.best, &reloaded).unwrap());

    // 3. Impact analysis: what if ORDERS_US stops delivering usd_amount?
    let us = workflow
        .sources()
        .into_iter()
        .find(|&s| workflow.graph().recordset(s).unwrap().name == "ORDERS_US")
        .unwrap();
    let report = analyze(
        &workflow,
        &Change::DropAttribute {
            source: us,
            attr: "usd_amount".into(),
        },
    )
    .expect("impact analysis runs");
    println!("--- impact of dropping ORDERS_US.usd_amount ---");
    println!(
        "affected activities: {}",
        report
            .affected_activities
            .iter()
            .map(|&a| workflow.graph().activity(a).unwrap().label.clone())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "broken activities  : {}",
        report
            .broken_activities
            .iter()
            .map(|&a| workflow.graph().activity(a).unwrap().label.clone())
            .collect::<Vec<_>>()
            .join(", ")
    );
    assert!(!report.broken_activities.is_empty(), "$2E must break");

    // 4. Lineage: where does DW_ORDERS.amount come from?
    let dw = workflow.targets()[0];
    let steps = lineage(&workflow, dw, &"amount".into()).expect("lineage runs");
    println!("\n--- lineage of DW_ORDERS.amount ---");
    for step in &steps {
        let name = workflow.graph().node(step.node).unwrap().label().to_owned();
        println!("  {name}.{}", step.attr);
    }
    assert_eq!(steps.len(), 2, "amount stems from both regional sources");
}
