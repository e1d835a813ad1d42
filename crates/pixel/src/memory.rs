//! Lowering a scheduled graph to buffer live ranges.
//!
//! Each operator at time `t`:
//!
//! - produces an *activation* buffer live from `t` until its last
//!   consumer's time step (inclusive);
//! - streams a *weight slice* (convs/dense), live only for `[t, t+1)`,
//!   64-byte aligned for the vector units (paper §5.5);
//! - uses a *scratch* buffer (im2col/accumulators), live `[t, t+1)`.
//!
//! The residency policy picks the subset that competes for the on-chip
//! scratchpad ("the memory allocator packs a *chosen subset* of memory
//! buffers into PE memory", §2.3): tensors above a DRAM threshold are
//! spilled up front and represented by a small DMA staging buffer.

use tela_model::{Buffer, Problem, ProblemError, Size};

use crate::ir::{Graph, OpId, OpKind};
use crate::schedule::Schedule;

/// What a lowered buffer represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferRole {
    /// An operator's output feature map.
    Activation(OpId),
    /// An operator's streamed weight slice.
    Weights(OpId),
    /// An operator's scratch memory.
    Scratch(OpId),
    /// DMA staging for a DRAM-resident tensor (one per transfer window).
    DmaStaging(OpId),
}

/// One lowered buffer with its provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoweredBuffer {
    /// The live range / size / alignment the allocator sees.
    pub buffer: Buffer,
    /// What the buffer is.
    pub role: BufferRole,
}

/// The lowering result: an allocation problem plus provenance.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// Buffers in a stable order (activation, weights, scratch per op).
    pub buffers: Vec<LoweredBuffer>,
    /// Ops whose activations were sent to DRAM by the residency policy.
    pub dram_resident: Vec<OpId>,
}

/// Lowering knobs.
#[derive(Debug, Clone, Copy)]
pub struct LoweringConfig {
    /// Bytes per tensor element (1 = int8 inference, 2 = fp16, ...).
    pub bytes_per_element: u64,
    /// Activations larger than this stay in DRAM and appear on-chip only
    /// as a staging buffer. `u64::MAX` keeps everything on chip.
    pub dram_threshold: u64,
    /// Size of each DMA staging buffer.
    pub dma_staging_bytes: u64,
    /// Alignment applied to weight slices.
    pub weight_alignment: Size,
}

impl Default for LoweringConfig {
    fn default() -> Self {
        LoweringConfig {
            bytes_per_element: 1,
            dram_threshold: u64::MAX,
            dma_staging_bytes: 2048,
            weight_alignment: 64,
        }
    }
}

/// Lowers a scheduled graph to buffers.
///
/// # Example
///
/// ```
/// use tela_pixel::ir::zoo;
/// use tela_pixel::memory::{lower, LoweringConfig};
/// use tela_pixel::schedule::{schedule, ScheduleStrategy};
///
/// let g = zoo::mobilenet_like(64, 4);
/// let s = schedule(&g, ScheduleStrategy::Program, 1);
/// let lowered = lower(&g, &s, &LoweringConfig::default());
/// assert!(lowered.buffers.len() >= g.len());
/// ```
pub fn lower(graph: &Graph, schedule: &Schedule, config: &LoweringConfig) -> Lowered {
    let consumers = graph.consumers();
    let mut buffers = Vec::new();
    let mut dram_resident = Vec::new();

    for (idx, op) in graph.ops().iter().enumerate() {
        let id = OpId(idx);
        let t = schedule.time_of(id);
        let last_use = consumers[idx].iter().map(|c| schedule.time_of(*c)).max();
        let end = match last_use {
            Some(u) => u + 1,
            None => t + 1, // outputs / dead tensors live one step
        };
        let bytes = graph.shape(id).bytes(config.bytes_per_element);

        if matches!(op.kind, OpKind::Output) {
            continue; // outputs alias their input; nothing new on chip
        }

        if bytes > config.dram_threshold {
            dram_resident.push(id);
            // One staging window at production and one per consumer.
            buffers.push(LoweredBuffer {
                buffer: Buffer::new(t, t + 1, config.dma_staging_bytes),
                role: BufferRole::DmaStaging(id),
            });
            for &c in &consumers[idx] {
                let tc = schedule.time_of(c);
                buffers.push(LoweredBuffer {
                    buffer: Buffer::new(tc, tc + 1, config.dma_staging_bytes),
                    role: BufferRole::DmaStaging(id),
                });
            }
        } else {
            buffers.push(LoweredBuffer {
                buffer: Buffer::new(t, end, bytes.max(1)),
                role: BufferRole::Activation(id),
            });
        }

        let weights = graph.weight_bytes(id, config.bytes_per_element);
        if weights > 0 {
            buffers.push(LoweredBuffer {
                buffer: Buffer::new(t, t + 1, weights).with_align(config.weight_alignment),
                role: BufferRole::Weights(id),
            });
        }
        if let Some(scratch) = scratch_bytes(graph, id, config.bytes_per_element) {
            buffers.push(LoweredBuffer {
                buffer: Buffer::new(t, t + 1, scratch),
                role: BufferRole::Scratch(id),
            });
        }
    }
    Lowered {
        buffers,
        dram_resident,
    }
}

/// Scratch requirement per op kind (im2col patch rows, accumulators).
fn scratch_bytes(graph: &Graph, id: OpId, bytes_per_element: u64) -> Option<u64> {
    let op = &graph.ops()[id.index()];
    match op.kind {
        OpKind::Conv { kernel, .. } => {
            let in_c = graph.shape(op.inputs[0]).c;
            let out = graph.shape(id);
            // One output-row im2col patch buffer.
            Some(
                u64::from(kernel)
                    * u64::from(kernel)
                    * u64::from(in_c)
                    * u64::from(out.w)
                    * bytes_per_element,
            )
        }
        OpKind::Dense { units } => Some(u64::from(units) * 4), // fp32 accumulators
        _ => None,
    }
}

impl Lowered {
    /// Packs the lowered buffers into an allocation problem at the given
    /// scratchpad capacity.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError`] if some single buffer exceeds the
    /// scratchpad.
    pub fn problem(&self, scratchpad_bytes: Size) -> Result<Problem, ProblemError> {
        Problem::new(
            self.buffers.iter().map(|b| b.buffer).collect(),
            scratchpad_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::zoo;
    use crate::schedule::{schedule, ScheduleStrategy};

    fn lowered(res: u32, blocks: u32) -> (Graph, Lowered) {
        let g = zoo::mobilenet_like(res, blocks);
        let s = schedule(&g, ScheduleStrategy::Program, 1);
        let l = lower(&g, &s, &LoweringConfig::default());
        (g, l)
    }

    use crate::ir::Graph;

    #[test]
    fn activations_live_until_last_consumer() {
        let mut g = Graph::new();
        let x = g.input(crate::ir::Shape::new(8, 8, 4));
        let a = g.conv(x, 3, 1, 8);
        let b = g.conv(a, 3, 1, 8);
        let c = g.add(a, b); // `a` is used again here
        g.output(c);
        let s = schedule(&g, ScheduleStrategy::Program, 1);
        let l = lower(&g, &s, &LoweringConfig::default());
        let a_buf = l
            .buffers
            .iter()
            .find(|lb| lb.role == BufferRole::Activation(a))
            .expect("activation for a");
        // `a` runs at t=1; its last consumer (`add`) runs at t=3.
        assert_eq!((a_buf.buffer.start(), a_buf.buffer.end()), (1, 4));
    }

    #[test]
    fn weights_are_aligned_and_short_lived() {
        let (_, l) = lowered(32, 4);
        let weights: Vec<_> = l
            .buffers
            .iter()
            .filter(|lb| matches!(lb.role, BufferRole::Weights(_)))
            .collect();
        assert!(!weights.is_empty());
        for w in weights {
            assert_eq!(w.buffer.align(), 64);
            assert_eq!(w.buffer.lifetime(), 1);
        }
    }

    #[test]
    fn dram_threshold_replaces_big_activations_with_staging() {
        let g = zoo::mobilenet_like(64, 4);
        let s = schedule(&g, ScheduleStrategy::Program, 1);
        let config = LoweringConfig {
            dram_threshold: 4096,
            ..LoweringConfig::default()
        };
        let l = lower(&g, &s, &config);
        assert!(!l.dram_resident.is_empty());
        for lb in &l.buffers {
            if let BufferRole::Activation(_) = lb.role {
                assert!(lb.buffer.size() <= 4096);
            }
        }
        assert!(l
            .buffers
            .iter()
            .any(|lb| matches!(lb.role, BufferRole::DmaStaging(_))));
    }

    #[test]
    fn problem_capacity_checks_apply() {
        let (_, l) = lowered(64, 6);
        assert!(l.problem(1).is_err(), "tiny scratchpad must be rejected");
        let p = l.problem(u64::MAX).unwrap();
        assert_eq!(p.len(), l.buffers.len());
    }

    #[test]
    fn output_ops_add_no_buffers() {
        let mut g = Graph::new();
        let x = g.input(crate::ir::Shape::new(4, 4, 2));
        let c = g.conv(x, 1, 1, 2);
        g.output(c);
        let s = schedule(&g, ScheduleStrategy::Program, 1);
        let l = lower(&g, &s, &LoweringConfig::default());
        assert!(l
            .buffers
            .iter()
            .all(|lb| !matches!(lb.role, BufferRole::Activation(id) if g.ops()[id.index()].kind == crate::ir::OpKind::Output)));
    }

    #[test]
    fn lowering_is_deterministic() {
        let (_, a) = lowered(48, 5);
        let (_, b) = lowered(48, 5);
        assert_eq!(a.buffers, b.buffers);
    }
}
