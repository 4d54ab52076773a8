//! Custom activity behaviour (§3.2, building on ARKTOS II): the activity
//! templates are the fixed kinds `core::semantics` declares and
//! `core::text` spells, and a new behaviour is a named function applied by
//! the `function` template. Here `phone_normalize` is written in text,
//! given its engine-side implementation, optimized and executed.
//!
//! Run with `cargo run --example custom_templates`.

use etlopt::core::scalar::Scalar;
use etlopt::core::text;
use etlopt::engine::FunctionRegistry;
use etlopt::prelude::*;

// `phone` is the function's functionality schema; an in-place transform
// generates nothing, so the optimizer may move it freely among row-wise
// activities.
const WORKFLOW: &str = r#"
source "CRM" table rows=50000 (cust_id, phone, region)
activity a1 "NN"           = not_null(phone) sel=0.95                   <- "CRM"
activity a2 "normalize"    = function phone_normalize(phone) -> phone   <- a1
activity a3 "σ(region=EU)" = filter region = "EU" sel=0.3               <- a2
target "DW_CUSTOMERS" table (cust_id, phone, region) <- a3
"#;

fn main() {
    // 1. Load: CRM -> NN(phone) -> normalize -> σ(region) -> DW.
    let workflow = text::parse(WORKFLOW).expect("workflow text parses");

    // 2. Optimize: the selective region filter should move to the front.
    let model = RowCountModel::default();
    let out = HeuristicSearch::new()
        .run(&workflow, &model)
        .expect("HS runs");
    println!(
        "HS: cost {:.0} -> {:.0} ({:.1}%)",
        out.initial_cost,
        out.best_cost,
        out.improvement_pct()
    );
    print!("{}", out.best.pretty());
    let first = out.best.activities().unwrap()[0];
    assert_eq!(
        out.best.graph().activity(first).unwrap().label,
        "σ(region=EU)",
        "the selective filter should be pushed to the source"
    );

    // 3. Register the engine-side implementation and execute.
    let mut functions = FunctionRegistry::builtin();
    functions.register("phone_normalize", |args| {
        Ok(match &args[0] {
            Scalar::Str(s) => Scalar::Str(s.chars().filter(char::is_ascii_digit).collect()),
            other => other.clone(),
        })
    });
    let mut catalog = Catalog::new();
    let mut crm_data = Table::empty(Schema::of(["cust_id", "phone", "region"]));
    for i in 0..100i64 {
        crm_data
            .push(vec![
                i.into(),
                format!("+30 (69) {i:04}-{:03}", i % 997).into(),
                if i % 3 == 0 { "EU".into() } else { "US".into() },
            ])
            .unwrap();
    }
    catalog.insert("CRM", crm_data);
    let exec = Executor::new(catalog).with_functions(functions);
    let before = exec.run(&workflow).expect("initial executes");
    let after = exec.run(&out.best).expect("optimized executes");
    let same = before
        .target("DW_CUSTOMERS")
        .unwrap()
        .same_bag(after.target("DW_CUSTOMERS").unwrap())
        .unwrap();
    println!(
        "identical outputs = {same}; rows processed {} -> {}",
        before.stats.total(),
        after.stats.total()
    );
    assert!(same);
    assert!(after.stats.total() < before.stats.total());

    // The normalized phones are digits-only.
    let dw = after.target("DW_CUSTOMERS").unwrap();
    let phone_col = dw.col(&"phone".into()).unwrap();
    assert!(dw.rows().iter().all(|r| r[phone_col]
        .as_str()
        .unwrap()
        .chars()
        .all(|c| c.is_ascii_digit())));
    println!("sample normalized phone: {}", dw.rows()[0][phone_col]);
}
