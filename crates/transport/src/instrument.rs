//! Process-wide transport aggregates on the global metrics registry.
//!
//! The counters aggregate across every endpoint and transport in the
//! process so a single dump shows total wire activity. Frames and
//! bytes are counted once, where a frame crosses a transport: when a
//! transport's sender accepts it, and when the transport hands it to
//! the receiving endpoint (a sim or UDP queue, a TCP read). Names
//! are catalogued in `docs/OBSERVABILITY.md` under the `transport.*`
//! family.

use std::sync::LazyLock;

use nb_metrics::Counter;

macro_rules! transport_counter {
    ($static_name:ident, $metric:literal) => {
        pub(crate) static $static_name: LazyLock<Counter> =
            LazyLock::new(|| nb_metrics::global().counter($metric));
    };
}

transport_counter!(FRAMES_SENT, "transport.frames.sent");
transport_counter!(BYTES_SENT, "transport.bytes.sent");
transport_counter!(FRAMES_RECEIVED, "transport.frames.received");
transport_counter!(BYTES_RECEIVED, "transport.bytes.received");
transport_counter!(SIM_FRAMES_DROPPED, "transport.sim.frames.dropped");
transport_counter!(SIM_FRAMES_DUPLICATED, "transport.sim.frames.duplicated");
transport_counter!(FRAME_OVERSIZED, "transport.frame.oversized");
transport_counter!(WRITE_STALLED, "transport.write.stalled");
transport_counter!(SIM_FAULT_HELD, "transport.sim.fault.held");
transport_counter!(SIM_FAULT_FLAKY_DROPPED, "transport.sim.fault.flaky_dropped");
transport_counter!(BATCH_WRITES, "transport.batch.writes");
transport_counter!(BATCH_FRAMES, "transport.batch.frames");
transport_counter!(BATCH_COALESCED, "transport.batch.coalesced");
transport_counter!(SIM_FRAMES_DIRECT, "transport.sim.frames.direct");
transport_counter!(SIM_FRAMES_TAMPERED, "transport.sim.frames.tampered");
transport_counter!(SIM_FRAMES_REPLAYED, "transport.sim.frames.replayed");
