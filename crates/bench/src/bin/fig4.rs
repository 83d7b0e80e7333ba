//! Figure 4: "A comparison of the performance evaluating the expression
//! x+x+x, where x is an integer, 1 billion times."
//!
//! The paper's bars: Intepreted ≈ 40s, Hand-written ≈ 9.36s, Generated ≈
//! 9.52s — i.e. code generation removes nearly all interpretation
//! overhead and lands within a few percent of hand-written code. This
//! engine's substitute for code generation is vectorization: a columnar
//! kernel evaluates the expression over a whole batch of lanes at once.
//! We evaluate the same expression over the same 1024-lane batch with
//! the tree-walking interpreter (one row at a time), the kernel
//! (`eval_batch`), and a hand-written loop over the lanes, check that
//! all three agree, and report per-evaluation cost and projected time
//! for 10⁹ evaluations.
//!
//! Run with: `cargo run --release -p bench --bin fig4`

use bench::time;
use catalyst::expr::Expr;
use catalyst::interpreter;
use catalyst::row::Row;
use catalyst::types::DataType;
use catalyst::value::Value;
use catalyst::vectorized::{eval_batch, ColumnVector, RowBatch, VectorData};
use std::hint::black_box;
use std::sync::Arc;

/// Lanes per batch.
const LANES: usize = 1024;
/// Passes over the batch per variant.
const REPS: usize = 20_000;
const N: usize = LANES * REPS;

fn x() -> Expr {
    Expr::BoundRef {
        index: 0,
        dtype: DataType::Long,
        nullable: false,
        name: "x".into(),
    }
}

fn main() {
    let expr = x().add(x()).add(x());
    let lanes: Vec<i64> = (0..LANES as i64).collect();
    let batch = RowBatch::new(
        vec![Arc::new(ColumnVector::new(
            DataType::Long,
            VectorData::Long(lanes.clone()),
            None,
        ))],
        LANES,
    );
    let rows: Vec<Row> = (0..LANES).map(|i| batch.row(i)).collect();
    println!("Figure 4: evaluating x+x+x, {N} times per variant ({LANES}-lane batches)\n");

    // Interpreted: walk the tree per row (branches + dispatch + boxed
    // intermediates).
    let (sum_i, interpreted) = time(|| {
        let mut sum = 0i64;
        for _ in 0..REPS {
            for row in black_box(&rows) {
                if let Value::Long(v) = interpreter::eval(&expr, row).expect("eval") {
                    sum = sum.wrapping_add(v);
                }
            }
        }
        sum
    });

    // Kernel (this engine's "code generation"): one tree walk per batch,
    // a tight loop over unboxed i64 lanes per node.
    let (sum_k, kernel) = time(|| {
        let mut sum = 0i64;
        for _ in 0..REPS {
            let out = eval_batch(&expr, black_box(&batch)).expect("eval_batch");
            let VectorData::Long(v) = out.data() else {
                panic!("expected BIGINT lanes");
            };
            sum = v.iter().fold(sum, |s, x| s.wrapping_add(*x));
        }
        sum
    });

    // Hand-written: what a programmer would write directly over the same
    // lanes — one output lane per input lane, like the kernel.
    let (sum_h, hand) = time(|| {
        let mut sum = 0i64;
        for _ in 0..REPS {
            let out: Vec<i64> = black_box(&lanes).iter().map(|x| x + x + x).collect();
            sum = black_box(out).iter().fold(sum, |s, x| s.wrapping_add(*x));
        }
        sum
    });

    assert_eq!(sum_i, sum_k, "interpreter and kernel disagree");
    assert_eq!(sum_k, sum_h, "kernel and hand-written loop disagree");

    let per = |d: std::time::Duration| d.as_secs_f64() * 1e9 / N as f64;
    let billion = |d: std::time::Duration| d.as_secs_f64() * (1e9 / N as f64);
    println!(
        "{:<14} {:>12} {:>16} {:>18}",
        "variant", "ns/eval", "total (this N)", "projected 1e9 (s)"
    );
    for (name, d) in [
        ("interpreted", interpreted),
        ("hand-written", hand),
        ("kernel", kernel),
    ] {
        println!(
            "{:<14} {:>12.2} {:>14.0}ms {:>18.2}",
            name,
            per(d),
            d.as_secs_f64() * 1e3,
            billion(d)
        );
    }
    println!(
        "\ninterpreted / kernel = {:.1}x (paper, interpreted / generated: ~4.2x)",
        interpreted.as_secs_f64() / kernel.as_secs_f64()
    );
    println!(
        "kernel / hand-written = {:.2}x (paper, generated / hand-written: ~1.02x)",
        kernel.as_secs_f64() / hand.as_secs_f64()
    );
}
