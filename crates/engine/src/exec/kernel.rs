//! Compiled row-wise kernels: σ, NN, function application, π-out, ADD and
//! SK, resolved once per pipeline and run one row at a time.
//!
//! [`Kernel::compile`] binds an operator to its input schema — attributes
//! become column indices, the function name becomes its [`ScalarFn`], the
//! lookup name becomes a handle on the catalog's lookup table, the
//! predicate tree carries columns instead of [`Attr`]s — so the per-row
//! work is the operator itself. [`Kernel::edit`] is the one primitive:
//! edit a row in place and say whether it is kept. A filter only answers,
//! a function overwrites or appends its cell, π-out / SK `remove` and
//! `push` on the row's own `Vec`. Over rows somebody owns,
//! [`Kernel::apply`] is `retain_mut` over the batch. Over rows nobody owns
//! yet (a catalog or cached table, a pool page) a scan runs a [`Program`]:
//! every row-wise link between it and the first operator that must own
//! its input, per borrowed row — leading filters on the stored row, the
//! rest on one reused scratch row. What comes out is [`Lent`]: a consumer
//! that only reads takes it as it is, one that keeps it pays
//! [`Lent::into_row`], the one allocation a surviving row pays (the
//! scratch row itself changes hands; nothing is copied twice). A row some
//! link drops is never allocated.
//!
//! **Which error a run surfaces.** In a program: that of the first row, in
//! scan order, that fails, at the link where it fails. A link above a `∪`
//! runs in the programs of the union's inputs, left before right, so it
//! follows the same rule in union order. Over owned batches (an input
//! that cannot take the link): that of the first batch with a failing
//! row, at the first link failing on it. With one failing link both are
//! the reference's error; with two in one chain they need not be (row 3
//! missing its lookup at link 2 beats row 7 failing its function at
//! link 1 in a program and loses to it in the reference) —
//! batch-order-dependent before, row-order-dependent now.
//! [`Step::Broken`] and an unknown function fail only when a row reaches
//! them.
//!
//! The streaming executor runs these kernels and chooses a unary link's
//! runtime in one place, [`LinkPlan::compile`]: a kernel for a row-wise
//! kind, a keyed state machine for PK, DD and γ. The materializing `ops::*` implementations
//! stay the deliberately naive reference they are compared against: the
//! kernels share no per-row code with them, only the empty-table probe
//! that derives the output schema and raises schema errors identically.

#![cfg_attr(not(test), deny(clippy::expect_used))]

use std::cmp::Ordering;
use std::sync::Arc;

use etlopt_core::predicate::{CmpOp, Predicate};
use etlopt_core::scalar::Scalar;
use etlopt_core::schema::{Attr, Schema};
use etlopt_core::semantics::UnaryOp;

use crate::catalog::{surrogate_of_canonical, write_canonical_key, LookupTable};
use crate::error::{EngineError, Result};
use crate::eval::{compare, Truth};
use crate::functions::ScalarFn;
use crate::ops::{self, ExecCtx};
use crate::table::{Row, Table};

use super::keyed::GroupBy;

/// Column positions of `dst`'s attributes inside `src`, or `None` when the
/// layouts already agree. Attributes of `src` that `dst` does not name are
/// dropped, like [`Table::reordered`] drops them.
pub(crate) fn perm_for(src: &Schema, dst: &Schema) -> Result<Option<Vec<usize>>> {
    if src == dst {
        return Ok(None);
    }
    cols_of(dst.iter(), src).map(Some)
}

/// Re-order an owned row through a [`perm_for`] permutation. It names each
/// source cell at most once, so cells move instead of being cloned.
pub(crate) fn permute(row: &mut Row, perm: &[usize]) {
    *row = perm
        .iter()
        .map(|&i| std::mem::replace(&mut row[i], Scalar::Null))
        .collect();
}

/// Column positions of `attrs` inside `schema`.
pub(crate) fn cols_of<'a>(
    attrs: impl IntoIterator<Item = &'a Attr>,
    schema: &Schema,
) -> Result<Vec<usize>> {
    let probe = Table::empty(schema.clone());
    attrs.into_iter().map(|a| probe.col(a)).collect()
}

/// A predicate over column positions (SQL three-valued logic, exactly
/// [`crate::eval::eval`]).
#[derive(Clone)]
pub(crate) enum Pred {
    Cmp(usize, CmpOp, Scalar),
    CmpCols(usize, CmpOp, usize),
    IsNotNull(usize),
    IsNull(usize),
    InList {
        col: usize,
        values: Vec<Scalar>,
        has_null: bool,
    },
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
    True,
}

impl Pred {
    /// Resolve attributes depth-first, left to right — the order
    /// `eval::eval` meets them in, so a missing attribute is reported as
    /// the same one.
    fn compile(pred: &Predicate, probe: &Table) -> Result<Pred> {
        Ok(match pred {
            Predicate::Cmp { attr, op, value } => Pred::Cmp(probe.col(attr)?, *op, value.clone()),
            Predicate::CmpAttr { left, op, right } => {
                Pred::CmpCols(probe.col(left)?, *op, probe.col(right)?)
            }
            Predicate::IsNotNull(attr) => Pred::IsNotNull(probe.col(attr)?),
            Predicate::IsNull(attr) => Pred::IsNull(probe.col(attr)?),
            Predicate::InList { attr, values } => Pred::InList {
                col: probe.col(attr)?,
                values: values.clone(),
                has_null: values.iter().any(Scalar::is_null),
            },
            Predicate::And(a, b) => Pred::And(
                Box::new(Pred::compile(a, probe)?),
                Box::new(Pred::compile(b, probe)?),
            ),
            Predicate::Or(a, b) => Pred::Or(
                Box::new(Pred::compile(a, probe)?),
                Box::new(Pred::compile(b, probe)?),
            ),
            Predicate::Not(p) => Pred::Not(Box::new(Pred::compile(p, probe)?)),
            Predicate::True => Pred::True,
        })
    }

    fn eval(&self, row: &[Scalar]) -> Truth {
        let truth = |b: bool| if b { Truth::True } else { Truth::False };
        match self {
            Pred::Cmp(col, op, value) => compare(*op, &row[*col], value),
            Pred::CmpCols(left, op, right) => compare(*op, &row[*left], &row[*right]),
            Pred::IsNotNull(col) => truth(!row[*col].is_null()),
            Pred::IsNull(col) => truth(row[*col].is_null()),
            Pred::InList {
                col,
                values,
                has_null,
            } => {
                let v = &row[*col];
                if v.is_null() {
                    Truth::Unknown
                } else if values.iter().any(|x| v.compare(x) == Some(Ordering::Equal)) {
                    Truth::True
                } else if *has_null {
                    Truth::Unknown
                } else {
                    Truth::False
                }
            }
            // Evaluation cannot fail once compiled, so skipping the right
            // side when the left decides is unobservable.
            Pred::And(a, b) => match a.eval(row) {
                Truth::False => Truth::False,
                t => t.and(b.eval(row)),
            },
            Pred::Or(a, b) => match a.eval(row) {
                Truth::True => Truth::True,
                t => t.or(b.eval(row)),
            },
            Pred::Not(p) => p.eval(row).not(),
            Pred::True => Truth::True,
        }
    }
}

/// A kernel that only keeps or drops rows. It never edits one, so a
/// [`Program`] runs its leading ones on the stored row itself.
#[derive(Clone)]
pub(crate) enum Filter {
    Pred(Pred),
    NotNull(usize),
    /// Keeps every row: a link that only tallies what passes it (the
    /// count of a `∪` pushed into its inputs).
    All,
}

impl Filter {
    fn keeps(&self, row: &[Scalar]) -> bool {
        match self {
            Filter::Pred(p) => p.eval(row).passes(),
            Filter::NotNull(col) => !row[*col].is_null(),
            Filter::All => true,
        }
    }
}

/// A copy of `row` with room for `spare` more cells.
pub(crate) fn clone_row(row: &[Scalar], spare: usize) -> Row {
    let mut out = Vec::with_capacity(row.len() + spare);
    out.extend_from_slice(row);
    out
}

/// A row that survived a [`Program`], lent to whoever reads it next: valid
/// until the program runs its next row. It is still in the table or page
/// it was read from when nothing had to edit it, on the program's scratch
/// row otherwise.
pub(crate) struct Lent<'a> {
    program: &'a mut Program,
    stored: &'a [Scalar],
}

impl Lent<'_> {
    pub(crate) fn cells(&self) -> &[Scalar] {
        match self.program.edits() {
            true => &self.program.scratch,
            false => self.stored,
        }
    }

    /// The one allocation a surviving row pays: a stored row is cloned;
    /// the scratch row, allocated when it was filled, changes hands and
    /// the program fills a fresh one next time.
    pub(crate) fn into_row(self) -> Row {
        match self.program.edits() {
            true => std::mem::take(&mut self.program.scratch),
            false => clone_row(self.stored, self.program.spare),
        }
    }
}

/// The row-wise links a scan runs on rows it does not own, in link order,
/// tallying what each link would have reported had it run above the scan.
/// [`super::stream::Scan`] reads through this.
#[derive(Default)]
pub(crate) struct Program {
    /// Stored column → declared column, when the layouts differ. Links are
    /// compiled against the declared layout, so a permuting program is
    /// given none: it only lays the row out.
    perm: Option<Vec<usize>>,
    /// Cells an owner appends to a row it takes; allocated along with it.
    spare: usize,
    /// The leading filters, run on the stored row.
    lead: Vec<Filter>,
    /// The links behind them, run on the scratch row.
    rest: Vec<Kernel>,
    /// `stopped[i]` rows were dropped by link `i`; the last slot counts
    /// the survivors.
    stopped: Vec<u64>,
    /// The row being edited: reused while rows are dropped or only lent,
    /// re-allocated — at the widest a row has left the links — once taken.
    scratch: Row,
    widest: usize,
    bufs: Bufs,
}

impl Program {
    pub(crate) fn new(perm: Option<Vec<usize>>, spare: usize) -> Program {
        Program {
            perm,
            spare,
            stopped: vec![0],
            ..Program::default()
        }
    }

    pub(crate) fn push(&mut self, link: Kernel) {
        match link.step {
            Step::Filter(f) if self.rest.is_empty() => self.lead.push(f),
            step => self.rest.push(Kernel { step }),
        }
        self.stopped.push(0);
    }

    /// Does every row come out, unedited? Then a batch is as long as
    /// its input.
    pub(crate) fn keeps_all(&self) -> bool {
        self.rest.is_empty() && self.lead.iter().all(|f| matches!(f, Filter::All))
    }

    pub(crate) fn permutes(&self) -> bool {
        self.perm.is_some()
    }

    /// Must a row that passed the leading filters be laid out or edited?
    fn edits(&self) -> bool {
        self.permutes() || !self.rest.is_empty()
    }

    /// Run `stored` through every link; `None` when one drops it. Tallied
    /// either way.
    pub(crate) fn run<'a>(&'a mut self, stored: &'a [Scalar]) -> Result<Option<Lent<'a>>> {
        let mut at = self.lead.iter().take_while(|f| f.keeps(stored)).count();
        if at == self.lead.len() && self.edits() {
            self.scratch.clear();
            self.scratch
                .reserve_exact(stored.len().max(self.widest) + self.spare);
            match &self.perm {
                Some(perm) => self.scratch.extend(perm.iter().map(|&c| stored[c].clone())),
                None => self.scratch.extend_from_slice(stored),
            }
            for link in &self.rest {
                if !link.edit(&mut self.scratch, &mut self.bufs)? {
                    break;
                }
                at += 1;
            }
            self.widest = self.widest.max(self.scratch.len());
        }
        self.stopped[at] += 1;
        let survived = at + 1 == self.stopped.len();
        Ok(survived.then_some(Lent {
            program: self,
            stored,
        }))
    }

    /// Report `(link index, rows it processed, rows it passed)` for every
    /// link since the last drain — a link processes every row that got
    /// past the links before it — and reset the tallies.
    pub(crate) fn drain_tallies(&mut self, mut report: impl FnMut(usize, u64, u64)) {
        let links = self.stopped.len() - 1;
        let mut reached: u64 = self.stopped.iter().sum();
        for (i, dropped) in self.stopped.iter_mut().enumerate() {
            let processed = reached;
            reached -= std::mem::take(dropped);
            if i < links {
                report(i, processed, reached);
            }
        }
    }
}

/// What a kernel reuses from row to row: a multi-argument call's argument
/// cells, a surrogate lookup's canonical key.
#[derive(Default)]
pub(crate) struct Bufs {
    args: Vec<Scalar>,
    key: String,
}

/// A resolved function application and the row edit that lays its value
/// out like `UnaryOp::output` orders the schema.
#[derive(Clone)]
struct Call {
    name: String,
    /// `None` when the registry has no such function: reported on the
    /// first row, like the reference (which never calls it on no rows).
    f: Option<ScalarFn>,
    args: Vec<usize>,
    /// The in-place slot the value overwrites; `None` appends it.
    overwrite: Option<usize>,
    /// Input columns that do not survive, descending, so each `remove`
    /// leaves the remaining indices valid.
    drop: Vec<usize>,
}

impl Call {
    fn edit(&self, row: &mut Row, args: &mut Vec<Scalar>) -> Result<()> {
        let f = self
            .f
            .as_ref()
            .ok_or_else(|| EngineError::UnknownFunction(self.name.clone()))?;
        let value = match self.args.as_slice() {
            // The common one-argument call borrows its cell.
            [col] => f(std::slice::from_ref(&row[*col]))?,
            cols => {
                args.clear();
                args.extend(cols.iter().map(|&c| row[c].clone()));
                f(args)?
            }
        };
        let appended = match self.overwrite {
            Some(col) => {
                row[col] = value;
                None
            }
            None => Some(value),
        };
        for &c in &self.drop {
            row.remove(c);
        }
        row.extend(appended);
        Ok(())
    }
}

/// A resolved surrogate-key assignment: key column out, surrogate appended.
#[derive(Clone)]
struct Surrogate {
    key_col: usize,
    lookup: String,
    /// `None` when the catalog has no such lookup table (every key misses).
    table: Option<Arc<LookupTable>>,
    auto: bool,
}

impl Surrogate {
    fn edit(&self, row: &mut Row, key: &mut String) -> Result<()> {
        key.clear();
        write_canonical_key(key, &row[self.key_col]);
        let hit = self.table.as_ref().and_then(|t| t.get(key.as_str()));
        let sk = match hit {
            Some(s) => s.clone(),
            None if self.auto => surrogate_of_canonical(key),
            None => {
                return Err(EngineError::LookupMiss {
                    lookup: self.lookup.clone(),
                    key: row[self.key_col].to_string(),
                })
            }
        };
        row.remove(self.key_col);
        row.push(sk);
        Ok(())
    }
}

#[derive(Clone)]
enum Step {
    Filter(Filter),
    /// A σ over an attribute its input lacks. The reference only notices
    /// when a row reaches it, so the error waits for the first row.
    Broken(EngineError),
    Call(Call),
    /// Columns to remove, descending.
    ProjectOut(Vec<usize>),
    AddField(Scalar),
    Surrogate(Surrogate),
}

/// One row-wise operator bound to its input schema.
#[derive(Clone)]
pub(crate) struct Kernel {
    step: Step,
}

/// How one unary link runs in the streaming executor: keep the first
/// row per key (PK on its key columns, DD on whole rows), group (γ), or a
/// row-wise [`Kernel`].
pub(crate) enum LinkPlan {
    /// `Some(cols)` for the PK check, `None` for whole-row dedup.
    KeepFirst(Option<Vec<usize>>),
    /// The empty group-by state, resolved against the link's input.
    Aggregate(Box<GroupBy>),
    RowWise(Kernel),
}

impl LinkPlan {
    /// Bind `op` to `input`, returning the plan and its output schema. A
    /// schema error surfaces here, before any row moves.
    pub(crate) fn compile(
        op: &UnaryOp,
        input: &Schema,
        ctx: &ExecCtx<'_>,
    ) -> Result<(LinkPlan, Schema)> {
        Ok(match op {
            UnaryOp::PkCheck { key, .. } => (
                LinkPlan::KeepFirst(Some(cols_of(key, input)?)),
                input.clone(),
            ),
            UnaryOp::Dedup { .. } => (LinkPlan::KeepFirst(None), input.clone()),
            UnaryOp::Aggregate { agg, .. } => {
                let state = GroupBy::new(agg, input)?;
                let output = state.output_schema().clone();
                (LinkPlan::Aggregate(Box::new(state)), output)
            }
            UnaryOp::Filter { .. }
            | UnaryOp::NotNull { .. }
            | UnaryOp::Function(_)
            | UnaryOp::ProjectOut(_)
            | UnaryOp::AddField { .. }
            | UnaryOp::SurrogateKey { .. } => {
                let (kernel, output) = Kernel::compile(op, input, ctx)?;
                (LinkPlan::RowWise(kernel), output)
            }
        })
    }
}

fn cols<'a>(probe: &Table, attrs: impl IntoIterator<Item = &'a Attr>) -> Result<Vec<usize>> {
    attrs.into_iter().map(|a| probe.col(a)).collect()
}

fn descending(mut cols: Vec<usize>) -> Vec<usize> {
    cols.sort_unstable_by(|a, b| b.cmp(a));
    cols.dedup();
    cols
}

impl Kernel {
    /// The link that keeps and tallies every row.
    pub(crate) fn pass() -> Kernel {
        Kernel {
            step: Step::Filter(Filter::All),
        }
    }

    /// Bind `op` to `input`, returning the kernel and its output schema.
    /// The schema — and every schema error — comes from probing the
    /// materializing implementation with an empty table, so both backends
    /// reject the same plans with the same error.
    fn compile(op: &UnaryOp, input: &Schema, ctx: &ExecCtx<'_>) -> Result<(Kernel, Schema)> {
        let probe = Table::empty(input.clone());
        let output = ops::exec_unary(op, &probe, ctx)?.schema().clone();
        let step = match op {
            UnaryOp::Filter { predicate, .. } => match Pred::compile(predicate, &probe) {
                Ok(p) => Step::Filter(Filter::Pred(p)),
                Err(e) => Step::Broken(e),
            },
            UnaryOp::NotNull { attr, .. } => Step::Filter(Filter::NotNull(probe.col(attr)?)),
            UnaryOp::Function(f) => Step::Call(Call {
                name: f.function.clone(),
                f: ctx.functions.resolve(&f.function),
                args: cols(&probe, &f.inputs)?,
                overwrite: match f.inputs.contains(&f.output) {
                    true => Some(probe.col(&f.output)?),
                    false => None,
                },
                drop: descending(cols(&probe, op.projected_out(input).iter())?),
            }),
            UnaryOp::ProjectOut(attrs) => Step::ProjectOut(descending(
                attrs.iter().filter_map(|a| input.index_of(a)).collect(),
            )),
            UnaryOp::AddField { value, .. } => Step::AddField(value.clone()),
            UnaryOp::SurrogateKey { key, lookup, .. } => Step::Surrogate(Surrogate {
                key_col: probe.col(key)?,
                lookup: lookup.clone(),
                table: ctx.catalog.lookup_table(lookup),
                auto: ctx.auto_lookup,
            }),
            UnaryOp::PkCheck { .. } | UnaryOp::Dedup { .. } | UnaryOp::Aggregate { .. } => {
                return Err(EngineError::FunctionFailed {
                    function: "exec::kernel".into(),
                    reason: format!("{op} is not row-wise"),
                })
            }
        };
        Ok((Kernel { step }, output))
    }

    /// Edit one row in place; `false` drops it. An error ends the run
    /// that owns the row.
    pub(crate) fn edit(&self, row: &mut Row, bufs: &mut Bufs) -> Result<bool> {
        match &self.step {
            Step::Filter(f) => return Ok(f.keeps(row)),
            Step::Broken(e) => return Err(e.clone()),
            Step::Call(call) => call.edit(row, &mut bufs.args)?,
            Step::ProjectOut(cols) => {
                for &c in cols {
                    row.remove(c);
                }
            }
            Step::AddField(value) => row.push(value.clone()),
            Step::Surrogate(sk) => sk.edit(row, &mut bufs.key)?,
        }
        Ok(true)
    }

    /// Run the operator over an owned `batch` in place. On an error the
    /// batch is left part-edited; the run that owns it is over.
    pub(crate) fn apply(&self, batch: &mut Vec<Row>) -> Result<()> {
        let mut bufs = Bufs::default();
        let mut failed = None;
        batch.retain_mut(|row| {
            failed.is_none()
                && self.edit(row, &mut bufs).unwrap_or_else(|e| {
                    failed = Some(e);
                    false
                })
        });
        failed.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::functions::FunctionRegistry;

    fn with_ctx<R>(f: impl FnOnce(&ExecCtx<'_>) -> R) -> R {
        let functions = FunctionRegistry::builtin();
        let catalog = Catalog::new();
        f(&ExecCtx {
            functions: &functions,
            catalog: &catalog,
            auto_lookup: true,
        })
    }

    fn sample() -> Table {
        Table::from_rows(
            Schema::of(["k", "a", "b"]),
            vec![
                vec![1.into(), 10.0.into(), "x".into()],
                vec![2.into(), Scalar::Null, "y".into()],
                vec![3.into(), 30.0.into(), Scalar::Null],
            ],
        )
        .unwrap()
    }

    /// A kernel over an owned batch keeps the reference's schema and rows.
    #[test]
    fn kernels_match_the_reference() {
        let ops = [
            UnaryOp::filter(Predicate::gt("a", 5.0).or(Predicate::IsNull(Attr::new("b")))),
            UnaryOp::not_null("b"),
            UnaryOp::function("concat", ["b", "k"], "bk"),
            UnaryOp::function("scale", ["a"], "a"),
            UnaryOp::project_out(["a", "k"]),
            UnaryOp::surrogate_key("k", "sk", "L"),
        ];
        with_ctx(|ctx| {
            for op in &ops {
                let input = sample();
                let (kernel, schema) = Kernel::compile(op, input.schema(), ctx).unwrap();
                let reference = ops::exec_unary(op, &input, ctx).unwrap();
                assert_eq!(&schema, reference.schema(), "{op}");

                let mut plain = input.rows().to_vec();
                kernel.apply(&mut plain).unwrap();
                assert_eq!(plain, reference.rows(), "{op}");
            }
        });
    }

    /// A program is its links applied one after the other: same rows, and
    /// per link the rows that reached it and the rows it passed. Only
    /// leading filters read the stored row — behind an editing link a
    /// filter sees the edited scratch row.
    #[test]
    fn a_program_is_its_links_applied_in_turn() {
        let chain = [
            UnaryOp::not_null("b"),
            UnaryOp::function("scale", ["a"], "a"),
            UnaryOp::filter(Predicate::IsNotNull(Attr::new("a"))),
            UnaryOp::project_out(["k"]),
        ];
        with_ctx(|ctx| {
            for links in 0..=chain.len() {
                let input = sample();
                let (mut schema, mut batch) = (input.schema().clone(), input.rows().to_vec());
                let (mut program, mut want) = (Program::new(None, 1), Vec::new());
                for op in &chain[..links] {
                    let (kernel, out) = Kernel::compile(op, &schema, ctx).unwrap();
                    let reached = batch.len() as u64;
                    kernel.apply(&mut batch).unwrap();
                    want.push((reached, batch.len() as u64));
                    program.push(kernel);
                    schema = out;
                }
                let mut rows = Vec::new();
                for stored in input.rows() {
                    if let Some(lent) = program.run(stored).unwrap() {
                        let lent_where_stored = std::ptr::eq(lent.cells(), &stored[..]);
                        assert_eq!(lent_where_stored, links <= 1, "{links}");
                        rows.push(lent.into_row());
                    }
                }
                assert_eq!(rows, batch, "{links} links");
                // Room for the spare cell, and no more than the stored width.
                assert!(rows
                    .iter()
                    .all(|r| (r.len() + 1..=4).contains(&r.capacity())));
                let mut got = Vec::new();
                program.drain_tallies(|_, reached, passed| got.push((reached, passed)));
                assert_eq!(got, want, "{links} links");
            }
        });
    }

    /// A σ over a missing attribute passes the empty probe in the
    /// reference and fails on its first row; the kernel does the same,
    /// over a batch and behind the links of a program.
    #[test]
    fn filter_on_a_missing_attribute_fails_on_the_first_row_only() {
        let op = UnaryOp::filter(Predicate::gt("ghost", 1));
        with_ctx(|ctx| {
            let input = sample();
            let (kernel, _) = Kernel::compile(&op, input.schema(), ctx).unwrap();
            let mut none: Vec<Row> = Vec::new();
            kernel.apply(&mut none).unwrap();
            let mut some = input.rows().to_vec();
            let want = ops::exec_unary(&op, &input, ctx).unwrap_err();
            assert_eq!(kernel.apply(&mut some).unwrap_err(), want);

            // Behind a filter only row 3 passes, rows 1 and 2 never reach it.
            let ahead = UnaryOp::filter(Predicate::gt("k", 2));
            let mut program = Program::new(None, 0);
            program.push(Kernel::compile(&ahead, input.schema(), ctx).unwrap().0);
            program.push(kernel);
            let rows = input.rows();
            assert!(program.run(&rows[0]).unwrap().is_none());
            assert!(program.run(&rows[1]).unwrap().is_none());
            assert_eq!(program.run(&rows[2]).err(), Some(want));
        });
    }
}
