//! Allocation guard for the multicast message plane.
//!
//! The dissemination contract (DESIGN.md "Writeset dissemination"):
//! every multicast takes the one pooled path. Fanning a message whose
//! payload is already `Arc`-shared (how protocols ship writesets) out to
//! n targets performs exactly **one** heap allocation after warm-up —
//! the pooled `Arc` at send time — and **zero** at delivery, where the
//! non-final legs clone a pointer and the final leg unwraps the pool.
//! Fanning out a deep message also allocates once at send time, with
//! only the non-final legs paying a deep copy at delivery. This test
//! installs a counting global allocator and holds `Context::multicast`
//! to that promise. It lives in its own integration-test crate because the
//! counter is process-global and `cargo` runs `#[test]`s concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use repl_sim::{
    impl_as_any, Actor, Context, Message, NetworkConfig, NodeId, SimConfig, SimDuration, SimTime,
    TimerId, World,
};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Stand-ins for two payload shapes: an `Arc`-shared writeset (how the
/// replication protocols ship one; clone bumps a count) and an owned
/// row vector (clone allocates).
#[derive(Clone, Debug)]
enum Msg {
    Shared(Arc<Vec<u8>>),
    Deep(Vec<u8>),
}

impl Message for Msg {
    fn wire_size(&self) -> usize {
        match self {
            Msg::Shared(v) => 16 + v.len(),
            Msg::Deep(v) => 16 + v.len(),
        }
    }
}

const GROUP: u32 = 7;
const WARM_SHARED: u64 = 1;
const WARM_DEEP: u64 = 2;
const ROUND_SHARED: u64 = 3;
const ROUND_DEEP: u64 = 4;

/// The timing wheel buckets events by time bits (6-bit levels), and a
/// bucket's backing `Vec` only has capacity once something landed in it.
/// Scheduling each measured round exactly one level-1 period after its
/// warm-up twin makes both rounds walk identical bucket paths, so the
/// measured rounds find every buffer pre-sized.
const WHEEL_PERIOD: u64 = 64 * 64;

/// Fires one multicast round per pre-armed timer tag.
struct Driver {
    peers: Vec<NodeId>,
    /// Built once up front, like a writeset a protocol has already
    /// wrapped in an `Arc`: sending it clones a pointer.
    shared: Arc<Vec<u8>>,
}

impl Actor<Msg> for Driver {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        ctx.set_timer(SimDuration::from_ticks(5_000), WARM_SHARED);
        ctx.set_timer(SimDuration::from_ticks(7_000), WARM_DEEP);
        ctx.set_timer(SimDuration::from_ticks(5_000 + WHEEL_PERIOD), ROUND_SHARED);
        ctx.set_timer(SimDuration::from_ticks(7_000 + WHEEL_PERIOD), ROUND_DEEP);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, _msg: Msg) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _timer: TimerId, tag: u64) {
        let msg = match tag {
            WARM_SHARED | ROUND_SHARED => Msg::Shared(Arc::clone(&self.shared)),
            _ => Msg::Deep(vec![0u8; 1024]),
        };
        ctx.multicast(self.peers.iter().copied(), msg);
    }

    impl_as_any!();
}

/// Counts deliveries without allocating.
struct Sink {
    shared: u64,
    deep_bytes: u64,
}

impl Actor<Msg> for Sink {
    fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        match msg {
            Msg::Shared(_) => self.shared += 1,
            Msg::Deep(v) => self.deep_bytes += v.len() as u64,
        }
    }

    impl_as_any!();
}

// One test function on purpose: the counter is process-global, and
// cargo runs `#[test]` functions concurrently.
#[test]
fn multicast_rounds_meet_the_pooled_fan_out_allocation_contract() {
    // Fixed latency, no jitter, no loss: rounds are deterministic and
    // the send instant is separated from the delivery instants.
    let net = NetworkConfig::lan()
        .with_base_latency(SimDuration::from_ticks(500))
        .with_jitter(SimDuration::ZERO);
    let mut world: World<Msg> = World::new(SimConfig::new(1).with_network(net).with_trace(false));
    let peers: Vec<NodeId> = (1..=GROUP).map(NodeId::new).collect();
    let driver = world.add_actor(Box::new(Driver {
        peers: peers.clone(),
        shared: Arc::new(vec![0u8; 256]),
    }));
    assert_eq!(driver, NodeId::new(0));
    for _ in 0..GROUP {
        world.add_actor(Box::new(Sink {
            shared: 0,
            deep_bytes: 0,
        }));
    }
    world.start();

    // Warm-up: one round of each shape sizes the timing-wheel buckets
    // and any other lazily-grown scratch along the exact paths the
    // measured rounds will retrace one WHEEL_PERIOD later.
    world.run_until(SimTime::from_ticks(8_500));

    // Shared round: send at t=9096, deliveries at t=9596. Exactly one
    // heap allocation at send time — the pooled Arc shared by all legs —
    // and none at delivery: non-final legs clone the inner Arc, the final
    // leg unwraps the pool, and the queue reuses warm capacity.
    let before_send = allocations();
    world.run_until(SimTime::from_ticks(9_200)); // timer fired, legs queued
    assert_eq!(
        allocations() - before_send,
        1,
        "Arc-payload multicast must allocate exactly once at send (the pool)"
    );
    let before_delivery = allocations();
    world.run_until(SimTime::from_ticks(10_000));
    assert_eq!(
        allocations() - before_delivery,
        0,
        "Arc-payload multicast must not allocate at delivery"
    );

    // Deep round: send at t=11096, deliveries at t=11596. Exactly one
    // allocation at send time — the pooled Arc shared by all legs —
    // beyond the driver's own construction of the 1 KiB payload.
    let before_send = allocations();
    world.run_until(SimTime::from_ticks(11_200)); // timer fired, legs queued
    let send_allocs = allocations() - before_send;
    // The driver's on_timer allocates the Vec payload (1) and the pool
    // wraps it in one shared Arc (1): nothing else may allocate.
    assert_eq!(
        send_allocs, 2,
        "deep multicast must allocate exactly once beyond payload construction"
    );
    let before_delivery = allocations();
    world.run_until(SimTime::from_ticks(12_500));
    let delivery_allocs = allocations() - before_delivery;
    // n-1 legs deep-copy at delivery; the final leg unwraps the pool's
    // Arc and receives the original buffer for free.
    assert_eq!(
        delivery_allocs,
        u64::from(GROUP) - 1,
        "only non-final legs of a pooled multicast may clone"
    );

    // Every sink saw both rounds (warm-up + measured).
    for &p in &peers {
        let sink = world.actor_ref::<Sink>(p);
        assert_eq!(sink.shared, 2);
        assert_eq!(sink.deep_bytes, 2 * 1024);
    }
}
