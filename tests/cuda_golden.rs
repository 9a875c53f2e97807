//! Golden record of the paper's §III-B artifact: the CUDA translation
//! (`Compiled::cuda_source`) of every annotated loop of the 11 Table II
//! apps. Each host stub must also copy exactly the arrays the data plan
//! (`DataPlan::derive`) moves on the scale-1 input, host to device and back.
//!
//! `tests/cuda_golden.txt` changes only with a change that moves the
//! generated CUDA on purpose: on a mismatch the test prints the record it
//! computed.

use japonica::ir::{Env, Param, ParamTy};
use japonica::scheduler::plan::{DataPlan, PlanEntry};
use japonica_workloads::Workload;
use std::fmt::Write;

const GOLDEN: &str = include_str!("cuda_golden.txt");

/// The arrays a host stub copies in direction `kind`, in stub order.
fn stub_copies(cuda: &str, kind: &str) -> Vec<String> {
    cuda.lines()
        .filter(|l| l.trim_start().starts_with("cudaMemcpy(") && l.contains(kind))
        .filter_map(|l| Some(l.split_once("bytes_")?.1.split_once(',')?.0.to_string()))
        .collect()
}

fn compute_record() -> String {
    let mut out = String::new();
    for w in Workload::all() {
        let compiled = w.compile();
        let inst = w.instantiate(1);
        let (_, f) = compiled
            .program
            .function_by_name(w.entry)
            .expect("entry exists");
        let mut env = Env::with_slots(f.num_vars);
        for (p, &a) in f.params.iter().zip(&inst.args) {
            let v = match p.ty {
                ParamTy::Scalar(t) => a.cast(t).expect("args match the signature"),
                ParamTy::Array(_) => a,
            };
            env.set(p.var, v);
        }
        // The names of the parameters that hold the planned arrays.
        let names = |plan: &[PlanEntry]| -> Vec<String> {
            plan.iter()
                .map(|e| {
                    let held = |p: &Param| env.get(p.var).ok().and_then(|v| v.as_array());
                    let p = f.params.iter().find(|p| held(p) == Some(e.array));
                    p.expect("every planned array is a parameter").name.clone()
                })
                .collect()
        };
        for l in f.all_loops().into_iter().filter(|l| l.is_annotated()) {
            let cuda = compiled.cuda_source(l.id).expect("annotated loop");
            let classes = &compiled.analyses[&l.id].classes;
            let mut heap = inst.heap.clone();
            let plan = DataPlan::derive(&compiled.program, l, classes, &env, &mut heap)
                .expect("data plan derives");
            for (kind, planned) in [
                ("cudaMemcpyHostToDevice", &plan.copyin),
                ("cudaMemcpyDeviceToHost", &plan.copyout),
            ] {
                assert_eq!(
                    stub_copies(&cuda, kind),
                    names(planned),
                    "{} {}: {kind} copies disagree with the data plan\n{cuda}",
                    w.name,
                    l.id
                );
            }
            writeln!(out, "=== {} {} ===\n{cuda}", w.name, l.id).expect("writing to a String");
        }
    }
    out
}

#[test]
fn cuda_translation_matches_the_golden_record_and_the_data_plan() {
    let actual = compute_record();
    if actual != GOLDEN {
        for (a, g) in actual.lines().zip(GOLDEN.lines()) {
            if a != g {
                eprintln!("first differing line:\n  golden: {g}\n  actual: {a}");
                break;
            }
        }
        panic!("generated CUDA moved; computed record:\n{actual}");
    }
}
