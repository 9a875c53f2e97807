//! Seeded inputs: a Table II app compiled, instantiated from the workload
//! seed, and paired with the output of its independent Rust reference.

use japonica::Compiled;
use japonica_ir::Heap;
use japonica_workloads::{gen, Instance, Kind, Workload};
use std::time::Instant;

/// `gen::<app>(scale, seed + kind)`: seed 42 reproduces
/// `Workload::instantiate`, which hard-codes it.
pub fn instantiate(w: &Workload, scale: u64, seed: u64) -> Instance {
    let seed = seed.wrapping_add(w.kind as u64);
    match w.kind {
        Kind::Gemm => gen::gemm(scale, seed),
        Kind::VectorAdd => gen::vectoradd(scale, seed),
        Kind::Bfs => gen::bfs(scale, seed),
        Kind::Mvt => gen::mvt(scale, seed),
        Kind::GaussSeidel => gen::gauss_seidel(scale, seed),
        Kind::Cfd => gen::cfd(scale, seed),
        Kind::Sepia => gen::sepia(scale, seed),
        Kind::BlackScholes => gen::blackscholes(scale, seed),
        Kind::Bicg => gen::bicg(scale, seed),
        Kind::TwoMm => gen::two_mm(scale, seed),
        Kind::Crypt => gen::crypt(scale, seed),
    }
}

/// One input shape of one app: the heap a job or cell starts from and the
/// heap the Rust reference says it must end with.
pub struct Shape {
    pub w: &'static Workload,
    pub inst: Instance,
    pub expected: Heap,
}

/// Host seconds a set-up spent in input generation and in the references.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupCost {
    pub instantiate_s: f64,
    pub reference_s: f64,
}

impl Shape {
    pub fn new(w: &'static Workload, seed: u64, cost: &mut SetupCost) -> Shape {
        let t0 = Instant::now();
        let inst = instantiate(w, 1, seed);
        let t1 = Instant::now();
        let mut expected = inst.heap.clone();
        w.run_reference(&mut expected, &inst.args);
        cost.instantiate_s += (t1 - t0).as_secs_f64();
        cost.reference_s += t1.elapsed().as_secs_f64();
        Shape { w, inst, expected }
    }

    /// Does `heap` hold the reference's outputs?
    pub fn check(&self, heap: &Heap) -> Result<(), String> {
        japonica_workloads::outputs_match(heap, &self.expected, &self.inst)
            .map_err(|e| format!("{}: {e}", self.w.name))
    }
}

/// A compiled app with its default-seed-derived input shape.
pub struct App {
    pub compiled: Compiled,
    pub shape: Shape,
}

/// The 11 apps, compiled and instantiated from `seed`.
pub fn corpus(seed: u64, cost: &mut SetupCost) -> Vec<App> {
    Workload::all()
        .iter()
        .map(|w| App {
            compiled: w.compile(),
            shape: Shape::new(w, seed, cost),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_42_reproduces_the_registry_inputs_and_other_seeds_differ() {
        let w = Workload::by_name("VectorAdd").unwrap();
        let a = instantiate(w, 1, 42);
        let b = w.instantiate(1);
        let arr = a.args[0].as_array().unwrap();
        assert_eq!(
            a.heap.read_doubles(arr).unwrap(),
            b.heap.read_doubles(arr).unwrap()
        );
        let c = instantiate(w, 1, 7);
        assert_ne!(
            a.heap.read_doubles(arr).unwrap(),
            c.heap.read_doubles(arr).unwrap()
        );
    }

    #[test]
    fn a_shape_accepts_its_reference_and_rejects_the_untouched_input() {
        let mut cost = SetupCost::default();
        let s = Shape::new(Workload::by_name("GEMM").unwrap(), 5, &mut cost);
        assert!(s.check(&s.expected).is_ok());
        assert!(s.check(&s.inst.heap).is_err());
        assert!(cost.instantiate_s > 0.0 && cost.reference_s > 0.0);
    }
}
