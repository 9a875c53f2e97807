//! The two scheduling policies of paper §V as pure state machines:
//! `next_ticket()` hands out a [`Ticket`], `finish_gpu` / `finish_host` are
//! told what it came to. A schedule owns every simulated clock and every
//! decision and touches no program, heap or device memory (DESIGN.md,
//! "Scheduling core").

use crate::config::SchedulerConfig;
use crate::modes::ExecutionMode;
use crate::report::SchedError;
use japonica_faults::FaultStats;
use japonica_ir::LoopId;
use std::collections::VecDeque;
use std::ops::Range;

/// A device a ticket runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    Gpu,
    Cpu,
}

/// One unit of work for the driver to execute and report back.
#[derive(Debug, Clone, PartialEq)]
pub struct Ticket {
    pub device: Device,
    pub range: Range<u64>,
    /// Which task of the batch (stealing; 0 when sharing one loop).
    pub task: usize,
    /// Chunk (sharing) or sub-loop (stealing) index within the task.
    pub chunk: u64,
    /// Stealing: the task may not leave the queue it was distributed to
    /// (paper §V-B: high-TD loops are obligatory CPU, profiled no-TD loops
    /// obligatory GPU), and whether it did.
    pub obligatory: bool,
    pub stolen: bool,
    /// Sharing: when the chunk's input has reached the device.
    arrival_s: f64,
}

impl Ticket {
    fn new(device: Device, range: Range<u64>, task: usize, chunk: u64) -> Ticket {
        Ticket {
            device,
            range,
            task,
            chunk,
            obligatory: false,
            stolen: false,
            arrival_s: 0.0,
        }
    }

    fn iters(&self) -> u64 {
        self.range.end - self.range.start
    }
}

/// Task sharing (§V-A): uniform chunks, the GPU ascending from the front
/// with streamed transfers, the CPU descending from the back; whoever
/// drains its side of the boundary first pulls from the other's.
#[derive(Debug)]
pub struct ShareSchedule<'a> {
    cfg: &'a SchedulerConfig,
    trip: u64,
    chunk: u64,
    /// The first iteration beyond the GPU's preferential partition.
    pub boundary_iter: u64,
    in_bytes_per_iter: f64,
    /// What a GPU chunk pays per buffered write it commits (mode D only).
    commit_cycles_per_write: f64,
    /// The lowest chunk the CPU may take while the GPU is in service: 0
    /// when it may steal back, the first chunk wholly beyond the boundary
    /// under the paper's literal scheme (`cpu_steals_back = false`).
    cpu_floor: u64,
    /// Chunks `front..back` are still unassigned.
    front: u64,
    back: u64,
    /// Per-SM availability: Fermi runs concurrent kernels, so small chunk
    /// kernels from different stream launches occupy different SMs in
    /// parallel instead of serializing.
    sm_free: Vec<f64>,
    /// When the GPU *finishes* everything queued.
    pub gpu_clock: f64,
    pub cpu_clock: f64,
    /// The async H2D stream, opened by the first GPU chunk.
    transfer_clock: f64,
    gpu_started: bool,
    cpu_per_chunk_est: Option<f64>,
    gpu_alive: bool,
    pub gpu_iters: u64,
    pub cpu_iters: u64,
}

impl<'a> ShareSchedule<'a> {
    pub fn new(
        cfg: &'a SchedulerConfig,
        trip: u64,
        in_bytes_per_iter: f64,
        privatized: bool,
    ) -> ShareSchedule<'a> {
        // Uniform chunks of moderate size: one 32nd of the loop, but at
        // least 16 iterations (heavy-iteration loops like MVT still split)
        // and at most `chunk_iters` (cheap-iteration loops amortize
        // per-chunk costs).
        let chunk = trip
            .div_ceil(cfg.max_chunks.max(1))
            .clamp(16.min(trip.max(1)), cfg.chunk_iters.max(16));
        let boundary_iter = (trip as f64 * cfg.boundary_fraction()) as u64;
        let cpu_floor = boundary_iter.div_ceil(chunk);
        ShareSchedule {
            cfg,
            trip,
            chunk,
            boundary_iter,
            in_bytes_per_iter,
            commit_cycles_per_write: if privatized {
                cfg.tls.commit_cycles_per_write
            } else {
                0.0
            },
            cpu_floor: if cfg.cpu_steals_back { 0 } else { cpu_floor },
            front: 0,
            back: trip.div_ceil(chunk),
            sm_free: vec![0.0; cfg.gpu.effective_sms() as usize],
            gpu_clock: 0.0,
            cpu_clock: 0.0,
            transfer_clock: 0.0,
            gpu_started: false,
            cpu_per_chunk_est: None,
            gpu_alive: true,
            gpu_iters: 0,
            cpu_iters: 0,
        }
    }

    fn ticket(&self, device: Device, chunks: Range<u64>) -> Ticket {
        let range = chunks.start * self.chunk..(chunks.end * self.chunk).min(self.trip);
        Ticket::new(device, range, 0, chunks.start)
    }

    /// The next chunk (GPU) or run of chunks (CPU), or `None` when every
    /// iteration has been handed out.
    pub fn next_ticket(&mut self) -> Option<Ticket> {
        if self.front >= self.back {
            return None;
        }
        let gpu = &self.cfg.gpu;
        // The GPU pulls when an SM can start no later than the CPU frees
        // up, or when the CPU may not cross into what is left.
        let gpu_next = self.sm_free.iter().copied().fold(f64::INFINITY, f64::min);
        if self.gpu_alive && (gpu_next <= self.cpu_clock || self.back <= self.cpu_floor) {
            let mut t = self.ticket(Device::Gpu, self.front..self.front + 1);
            self.front += 1;
            let tbytes = (self.in_bytes_per_iter * t.iters() as f64) as usize;
            if !self.gpu_started {
                // Opening the stream pays the one-time JNI + driver and
                // PCIe latencies; subsequent chunks pipeline behind it.
                self.gpu_started = true;
                let open = gpu.kernel_launch_us * 1e-6 + gpu.pcie_latency_us * 1e-6;
                for f in &mut self.sm_free {
                    *f += open;
                }
                self.transfer_clock = self.sm_free[0];
            }
            if t.range.start < self.boundary_iter {
                // Rides the open stream ahead of the kernels, hidden behind
                // compute.
                self.transfer_clock += gpu.stream_seconds(tbytes);
                t.arrival_s = self.transfer_clock;
            } else {
                // Pulled from beyond the boundary: the kernel waits for a
                // synchronous transfer (the paper's "extra overhead"
                // observed on GEMM).
                t.arrival_s = gpu_next + gpu.transfer_seconds(tbytes);
            }
            Some(t)
        } else {
            // The CPU takes enough chunks per batch that the thread-dispatch
            // overhead stays amortized (the paper's CPU partition is one
            // descending multithreaded range, not per-chunk dispatches).
            let mut take = match self.cpu_per_chunk_est {
                Some(t) if t > 0.0 => ((50e-6 / t).ceil() as u64).clamp(1, self.back - self.front),
                _ => 1,
            };
            if self.gpu_alive {
                take = take.min(self.back.saturating_sub(self.cpu_floor)).max(1);
            }
            self.back -= take;
            Some(self.ticket(Device::Cpu, self.back..self.back + take))
        }
    }

    /// The chunk ran on its GPU: `occupied_cycles` of issue plus the memory
    /// cycles the SMs could not overlap, spread over `warps`; `writes`
    /// buffered stores committed (a privatized chunk pays for them).
    pub fn finish_gpu(
        &mut self,
        t: &Ticket,
        warps: u32,
        occupied_cycles: f64,
        writes: usize,
        backoff_s: f64,
    ) {
        let gpu = &self.cfg.gpu;
        let commit_s = gpu.cycles_to_seconds(writes as f64 * self.commit_cycles_per_write);
        // Spread the chunk's warps over the least-loaded SMs (streamed
        // launches pipeline: ~2us issue per chunk instead of the full JNI
        // launch cost). Each warp occupies its SM for its share of the
        // chunk's occupied cycles.
        let warps = warps.max(1) as usize;
        let per_warp_s =
            gpu.cycles_to_seconds(occupied_cycles / warps as f64) + commit_s / warps as f64 + 2e-6;
        let mut order: Vec<usize> = (0..self.sm_free.len()).collect();
        order.sort_by(|&a, &b| self.sm_free[a].total_cmp(&self.sm_free[b]));
        for w in 0..warps {
            let sm = &mut self.sm_free[order[w % order.len()]];
            *sm = sm.max(t.arrival_s) + per_warp_s + backoff_s;
        }
        self.gpu_clock = self.sm_free.iter().copied().fold(0.0, f64::max);
        self.gpu_iters += t.iters();
    }

    /// The range ran on the host for `busy_s`, after `backoffs` of pool
    /// retry: ticketed there, or — `gpu_faulted` — resubmitted by a GPU
    /// ticket whose fault outlived its retries (`busy_s` then includes that
    /// attempt's backoff), `Some(false)` when the ladder retired the GPU.
    pub fn finish_host(
        &mut self,
        t: &Ticket,
        busy_s: f64,
        backoffs: &[f64],
        gpu_faulted: Option<bool>,
    ) {
        for b in backoffs {
            self.cpu_clock += b;
        }
        self.cpu_clock += busy_s;
        match gpu_faulted {
            Some(alive) => self.gpu_alive = alive,
            None => self.cpu_per_chunk_est = Some(busy_s / t.iters().div_ceil(self.chunk) as f64),
        }
        self.cpu_iters += t.iters();
    }

    /// Every ticket is finished and `bytes_out` went back to the host:
    /// results stream back on the return direction of the (full-duplex)
    /// link, overlapping compute; only the tail of the last chunk's
    /// write-back lands after the final kernel. Returns the wall time.
    pub fn close(&mut self, bytes_out: usize) -> f64 {
        if self.gpu_iters > 0 {
            let gpu_chunks = (self.gpu_iters as f64 / self.chunk as f64).ceil().max(1.0);
            self.gpu_clock += self.cfg.gpu.stream_seconds(bytes_out) / gpu_chunks;
        }
        self.gpu_clock.max(self.cpu_clock)
    }
}

/// Execution record of one (sub-)task.
#[derive(Debug, Clone)]
pub struct TaskRecord {
    pub loop_id: LoopId,
    /// Sub-loop index within its loop and the loop's sub-loop count.
    pub subloop: (u32, u32),
    /// Iteration range (0-based indices).
    pub range: (u64, u64),
    pub device: Device,
    /// The task ran on the other device than initially queued.
    pub stolen: bool,
    /// Simulated start/end on its device timeline.
    pub start_s: f64,
    pub end_s: f64,
}

/// Report of a whole stealing-scheme run.
#[derive(Debug, Clone, Default)]
pub struct StealingReport {
    /// Per-task execution records, in simulated completion order.
    pub tasks: Vec<TaskRecord>,
    /// Batch boundaries (simulated end time of each batch).
    pub batch_ends: Vec<f64>,
    pub gpu_busy_s: f64,
    pub cpu_busy_s: f64,
    /// Tasks the GPU stole from the CPU queue and vice versa.
    pub stolen_by_gpu: u32,
    pub stolen_by_cpu: u32,
    pub gpu_iters: u64,
    pub cpu_iters: u64,
    /// Injected-fault bookkeeping: retries, fallbacks, degradation ladder.
    pub faults: FaultStats,
    /// End-to-end simulated wall time.
    pub wall_s: f64,
}

/// Task stealing (§V-B, Algorithm 1): each PDG batch's (sub-)tasks are
/// distributed to a GPU and a CPU queue by dependence class; the device
/// whose clock is behind pops its own queue and steals the other queue's
/// latest non-obligatory task when idle; a barrier separates batches.
#[derive(Debug, Default)]
pub struct StealSchedule {
    /// Sub-loops per dependence-free task.
    subloops: u32,
    /// The GPU opens one stream per batch, paying this once; its tasks
    /// pipeline behind it: H2D shares ride an async stream ahead of the
    /// kernels, D2H results ride the return direction, and only the last
    /// write-back's tail lands after the final kernel.
    stream_open_s: f64,
    gpu_opened: bool,
    gpu_xfer_clock: f64,
    gpu_return_clock: f64,
    gpu_clock: f64,
    cpu_clock: f64,
    /// The open batch: each task's loop and sub-loop count, and the queues.
    batch: Vec<(LoopId, u32)>,
    gpu_q: VecDeque<Ticket>,
    cpu_q: VecDeque<Ticket>,
    /// Once the GPU exhausts its fault tolerance it is retired for the
    /// remainder of the run (all batches).
    gpu_retired: bool,
    /// Records, steal counters and busy time so far; the driver owns
    /// `faults`.
    pub report: StealingReport,
}

/// Take the latest task of `q` that may change queues for `thief`.
fn steal(q: &mut VecDeque<Ticket>, thief: Device) -> Option<Ticket> {
    let idx = q.iter().rposition(|t| !t.obligatory)?;
    let t = q.remove(idx)?;
    Some(Ticket { device: thief, ..t })
}

impl StealSchedule {
    pub fn new(cfg: &SchedulerConfig) -> StealSchedule {
        StealSchedule {
            subloops: cfg.subloops_per_task.max(1),
            stream_open_s: (cfg.gpu.kernel_launch_us + cfg.gpu.pcie_latency_us) * 1e-6,
            ..StealSchedule::default()
        }
    }

    /// A retired GPU hands its queue to the CPU wholesale.
    fn retire_gpu_queue(&mut self) {
        let handed = self.gpu_q.drain(..).map(|t| Ticket {
            device: Device::Cpu,
            ..t
        });
        self.cpu_q.extend(handed);
    }

    /// Queue one PDG batch of mutually independent loops, each given as
    /// `(loop, mode, trip count)`, and open the batch on both clocks.
    pub fn begin_batch(&mut self, tasks: &[(LoopId, ExecutionMode, u64)]) {
        self.batch.clear();
        for (task, &(loop_id, mode, trip)) in tasks.iter().enumerate() {
            // Only dependence-free tasks may be split into sub-loops.
            let splits = match mode {
                ExecutionMode::A | ExecutionMode::DPrime => self.subloops.min(trip.max(1) as u32),
                _ => 1,
            };
            self.batch.push((loop_id, splits));
            // Distribution rules (paper §V-B): high-TD and moderate-TD
            // loops to the CPU (obligatory for high), no-TD profiled loops
            // obligatory GPU, compile-time DOALL preferred GPU.
            let (device, obligatory) = match mode {
                ExecutionMode::A => (Device::Gpu, false),
                ExecutionMode::D | ExecutionMode::DPrime => (Device::Gpu, true),
                ExecutionMode::B | ExecutionMode::C => (Device::Cpu, true),
            };
            let queue = match device {
                Device::Gpu => &mut self.gpu_q,
                Device::Cpu => &mut self.cpu_q,
            };
            let per = trip.div_ceil(splits as u64).max(1);
            for s in 0..splits as u64 {
                let range = s * per..((s + 1) * per).min(trip);
                if range.is_empty() {
                    break;
                }
                queue.push_back(Ticket {
                    obligatory,
                    ..Ticket::new(device, range, task, s)
                });
            }
        }
        // Initial balancing steal (Algorithm 1 lines 7-10).
        if self.gpu_q.is_empty() && self.cpu_q.len() >= 2 {
            if let Some(t) = steal(&mut self.cpu_q, Device::Gpu) {
                self.report.stolen_by_gpu += 1;
                self.gpu_q.push_back(t);
            }
        }
        if self.cpu_q.is_empty() && self.gpu_q.len() >= 2 {
            if let Some(t) = steal(&mut self.gpu_q, Device::Cpu) {
                self.report.stolen_by_cpu += 1;
                self.cpu_q.push_back(t);
            }
        }
        let start = self.gpu_clock.max(self.cpu_clock);
        (self.gpu_clock, self.cpu_clock) = (start, start);
        (self.gpu_xfer_clock, self.gpu_return_clock) = (start, start);
        self.gpu_opened = false;
        if self.gpu_retired {
            self.retire_gpu_queue();
        }
    }

    /// The next task of the open batch, or `None` once both queues drained.
    pub fn next_ticket(&mut self) -> Result<Option<Ticket>, SchedError> {
        if self.gpu_q.is_empty() && self.cpu_q.is_empty() {
            return Ok(None);
        }
        // The device whose clock is behind acts next; it pops its own queue
        // first and steals when idle. A device that can get no work yields
        // the turn.
        let stealable = |q: &VecDeque<Ticket>| q.iter().any(|t| !t.obligatory);
        let gpu_alive = !self.gpu_retired;
        let mut gpu_turn = gpu_alive && self.gpu_clock <= self.cpu_clock;
        if gpu_turn && self.gpu_q.is_empty() && !stealable(&self.cpu_q) {
            gpu_turn = false;
        }
        if gpu_alive && !gpu_turn && self.cpu_q.is_empty() && !stealable(&self.gpu_q) {
            gpu_turn = true;
        }
        let (me, own_q, other_q) = if gpu_turn {
            (Device::Gpu, &mut self.gpu_q, &mut self.cpu_q)
        } else {
            (Device::Cpu, &mut self.cpu_q, &mut self.gpu_q)
        };
        let stolen = own_q.is_empty();
        let t = own_q.pop_front().or_else(|| steal(other_q, me));
        let t = t.ok_or_else(|| {
            SchedError::Internal("turn selection promised a stealable task but found none".into())
        })?;
        if gpu_turn && !self.gpu_opened {
            self.gpu_opened = true;
            self.gpu_clock += self.stream_open_s;
            self.gpu_xfer_clock = self.gpu_clock;
            self.gpu_return_clock = self.gpu_return_clock.max(self.gpu_clock);
        }
        Ok(Some(Ticket { stolen, ..t }))
    }

    /// The task ran on the GPU: its H2D share rides the async stream ahead
    /// of the kernel, its results the return direction.
    pub fn finish_gpu(&mut self, t: &Ticket, h2d_s: f64, kernel_s: f64, d2h_s: f64) {
        self.gpu_xfer_clock += h2d_s;
        let start = self.gpu_clock.max(self.gpu_xfer_clock);
        self.gpu_clock = start + kernel_s;
        self.gpu_return_clock = self.gpu_return_clock.max(self.gpu_clock) + d2h_s;
        self.record(t, Device::Gpu, t.stolen, start, self.gpu_clock);
    }

    /// The task ran on the host for `busy_s`: ticketed there, or —
    /// `gpu_faulted` — resubmitted by a GPU ticket whose fault outlived its
    /// retries, `Some(false)` when the ladder retired the GPU. This timeline
    /// has never charged retry backoff to a clock (`FaultStats::backoff_s`
    /// counts it).
    pub fn finish_host(&mut self, t: &Ticket, busy_s: f64, gpu_faulted: Option<bool>) {
        if gpu_faulted == Some(false) {
            self.gpu_retired = true;
            self.retire_gpu_queue();
        }
        let start = self.cpu_clock;
        self.cpu_clock += busy_s;
        let stolen = t.stolen || gpu_faulted.is_some();
        self.record(t, Device::Cpu, stolen, start, self.cpu_clock);
    }

    fn record(&mut self, t: &Ticket, device: Device, stolen: bool, start_s: f64, end_s: f64) {
        let (loop_id, splits) = self.batch[t.task];
        let r = &mut self.report;
        r.tasks.push(TaskRecord {
            loop_id,
            subloop: (t.chunk as u32, splits),
            range: (t.range.start, t.range.end),
            device,
            stolen,
            start_s,
            end_s,
        });
        let (busy, iters, steals) = match device {
            Device::Gpu => (&mut r.gpu_busy_s, &mut r.gpu_iters, &mut r.stolen_by_gpu),
            Device::Cpu => (&mut r.cpu_busy_s, &mut r.cpu_iters, &mut r.stolen_by_cpu),
        };
        *busy += end_s - start_s;
        *iters += t.iters();
        *steals += u32::from(stolen);
    }

    /// Barrier: the batch ends when both devices are done, including the
    /// GPU's trailing write-back on the return stream.
    pub fn end_batch(&mut self) {
        let end = self
            .gpu_clock
            .max(self.gpu_return_clock)
            .max(self.cpu_clock);
        (self.gpu_clock, self.cpu_clock) = (end, end);
        self.report.batch_ends.push(end);
        self.report.wall_s = end;
    }
}
