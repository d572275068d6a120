//! Raw event-loop throughput of the simulation kernel.
//!
//! Measures events/second through the hot path the whole performance
//! study rides on: message offer → heap push → pop → dispatch. Three
//! shapes are benchmarked:
//!
//! * `ping_pong` — two actors, serial request/response (heap stays tiny,
//!   measures per-event constant cost);
//! * `broadcast_storm` — every actor multicasts to all others each round
//!   (deep heap, multicast clone path);
//! * `timer_wheel` — timer-only load (scheduler cost without network).
//!
//! Run with `cargo bench -p repl-sim` and compare the reported
//! per-iteration times before and after kernel changes; one iteration
//! processes a fixed event count, so time/iter is inverse events/sec.

use criterion::{criterion_group, criterion_main, Criterion};
use repl_sim::{
    impl_as_any, Actor, Context, Message, NetworkConfig, NodeId, SimConfig, SimDuration, SimTime,
    TimerId, World,
};

#[derive(Clone, Debug)]
struct Payload(u64);
impl Message for Payload {
    fn wire_size(&self) -> usize {
        8
    }
}

/// Replies to every message until `budget` replies have been sent.
struct Echo {
    peers: Vec<NodeId>,
    budget: u64,
}
impl Actor<Payload> for Echo {
    fn on_start(&mut self, ctx: &mut Context<'_, Payload>) {
        let peers = self.peers.clone();
        for p in peers {
            ctx.send(p, Payload(0));
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Payload>, from: NodeId, msg: Payload) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        ctx.send(from, Payload(msg.0 + 1));
    }
    impl_as_any!();
}

/// Multicasts to the whole group every round until `rounds` runs out.
struct Storm {
    group: Vec<NodeId>,
    rounds: u64,
}
impl Actor<Payload> for Storm {
    fn on_start(&mut self, ctx: &mut Context<'_, Payload>) {
        let targets: Vec<NodeId> = self
            .group
            .iter()
            .copied()
            .filter(|&n| n != ctx.me())
            .collect();
        ctx.multicast(targets, Payload(0));
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Payload>, _from: NodeId, msg: Payload) {
        if self.rounds == 0 {
            return;
        }
        self.rounds -= 1;
        let targets: Vec<NodeId> = self
            .group
            .iter()
            .copied()
            .filter(|&n| n != ctx.me())
            .collect();
        ctx.multicast(targets, Payload(msg.0 + 1));
    }
    impl_as_any!();
}

/// A 1 KiB writeset-shaped payload cloned deeply on every multicast leg.
#[derive(Clone, Debug)]
struct FatPayload(Vec<u64>);
impl Message for FatPayload {
    fn wire_size(&self) -> usize {
        8 * self.0.len()
    }
}

/// The same payload behind an `Arc`: multicast clones are pointer bumps,
/// wire size (and thus byte accounting) unchanged.
#[derive(Clone, Debug)]
struct SharedPayload(std::sync::Arc<Vec<u64>>);
impl Message for SharedPayload {
    fn wire_size(&self) -> usize {
        8 * self.0.len()
    }
}

/// Multicasts a payload built by `make` to the group every round —
/// the shape of an ABCAST dissemination fan-out.
struct FanOut<M: Message> {
    group: Vec<NodeId>,
    rounds: u64,
    make: fn() -> M,
}
impl<M: Message> Actor<M> for FanOut<M> {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let targets: Vec<NodeId> = self
            .group
            .iter()
            .copied()
            .filter(|&n| n != ctx.me())
            .collect();
        ctx.multicast(targets, (self.make)());
    }
    fn on_message(&mut self, ctx: &mut Context<'_, M>, _from: NodeId, _msg: M) {
        if self.rounds == 0 {
            return;
        }
        self.rounds -= 1;
        let targets: Vec<NodeId> = self
            .group
            .iter()
            .copied()
            .filter(|&n| n != ctx.me())
            .collect();
        ctx.multicast(targets, (self.make)());
    }
    impl_as_any!();
}

/// Re-arms a short timer until `ticks` runs out.
struct Wheel {
    ticks: u64,
}

/// Re-arms timers across a ladder of horizons — same-slot, level-1/2
/// slots, a far level-3 slot and beyond the wheel window — so every
/// level of the hierarchical timing wheel (and its overflow heap)
/// cascades under load, not just the near slots `Wheel` exercises.
struct WideWheel {
    ticks: u64,
}

const HORIZONS: [u64; 5] = [3, 700, 40_000, 3_000_000, 20_000_000];

impl Actor<Payload> for WideWheel {
    fn on_start(&mut self, ctx: &mut Context<'_, Payload>) {
        ctx.set_timer(SimDuration::from_ticks(1), 0);
    }
    fn on_message(&mut self, _ctx: &mut Context<'_, Payload>, _from: NodeId, _msg: Payload) {}
    fn on_timer(&mut self, ctx: &mut Context<'_, Payload>, _id: TimerId, tag: u64) {
        if self.ticks == 0 {
            return;
        }
        self.ticks -= 1;
        let dt = HORIZONS[(tag % HORIZONS.len() as u64) as usize];
        ctx.set_timer(SimDuration::from_ticks(dt), tag + 1);
    }
    impl_as_any!();
}
impl Actor<Payload> for Wheel {
    fn on_start(&mut self, ctx: &mut Context<'_, Payload>) {
        ctx.set_timer(SimDuration::from_ticks(10), 0);
    }
    fn on_message(&mut self, _ctx: &mut Context<'_, Payload>, _from: NodeId, _msg: Payload) {}
    fn on_timer(&mut self, ctx: &mut Context<'_, Payload>, _id: TimerId, tag: u64) {
        if self.ticks == 0 {
            return;
        }
        self.ticks -= 1;
        ctx.set_timer(SimDuration::from_ticks(10), tag + 1);
    }
    impl_as_any!();
}

fn run_ping_pong(msgs: u64) -> u64 {
    let mut world = World::new(SimConfig::new(42).with_trace(false));
    let a = world.add_actor(Box::new(Echo {
        peers: Vec::new(),
        budget: msgs,
    }));
    let _b = world.add_actor(Box::new(Echo {
        peers: vec![a],
        budget: msgs,
    }));
    world.start();
    world.run_to_quiescence(SimTime::from_ticks(u64::MAX / 2));
    world.metrics().events_processed
}

fn run_storm(nodes: u32, rounds: u64) -> u64 {
    let mut world = World::new(SimConfig::new(42).with_trace(false));
    let group: Vec<NodeId> = (0..nodes).map(NodeId::new).collect();
    for _ in 0..nodes {
        world.add_actor(Box::new(Storm {
            group: group.clone(),
            rounds,
        }));
    }
    world.start();
    world.run_to_quiescence(SimTime::from_ticks(u64::MAX / 2));
    world.metrics().events_processed
}

fn run_fanout<M: Message>(nodes: u32, rounds: u64, make: fn() -> M) -> u64 {
    let mut world = World::new(SimConfig::new(42).with_trace(false));
    let group: Vec<NodeId> = (0..nodes).map(NodeId::new).collect();
    for _ in 0..nodes {
        world.add_actor(Box::new(FanOut {
            group: group.clone(),
            rounds,
            make,
        }));
    }
    world.start();
    world.run_to_quiescence(SimTime::from_ticks(u64::MAX / 2));
    world.metrics().events_processed
}

fn run_wide_wheel(actors: u32, ticks: u64) -> u64 {
    let mut world: World<Payload> = World::new(
        SimConfig::new(42)
            .with_network(NetworkConfig::instant())
            .with_trace(false),
    );
    for _ in 0..actors {
        world.add_actor(Box::new(WideWheel { ticks }));
    }
    world.start();
    world.run_to_quiescence(SimTime::from_ticks(u64::MAX / 2));
    world.metrics().events_processed
}

fn run_timer_wheel(actors: u32, ticks: u64) -> u64 {
    let mut world: World<Payload> = World::new(
        SimConfig::new(42)
            .with_network(NetworkConfig::instant())
            .with_trace(false),
    );
    for _ in 0..actors {
        world.add_actor(Box::new(Wheel { ticks }));
    }
    world.start();
    world.run_to_quiescence(SimTime::from_ticks(u64::MAX / 2));
    world.metrics().events_processed
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_events");
    g.sample_size(10);
    g.bench_function("ping_pong/5000_msgs", |b| {
        b.iter(|| std::hint::black_box(run_ping_pong(5_000)))
    });
    g.bench_function("broadcast_storm/8x200", |b| {
        b.iter(|| std::hint::black_box(run_storm(8, 200)))
    });
    g.bench_function("timer_wheel/16x1000", |b| {
        b.iter(|| std::hint::black_box(run_timer_wheel(16, 1_000)))
    });
    g.bench_function("timer_wheel_wide/16x1000", |b| {
        b.iter(|| std::hint::black_box(run_wide_wheel(16, 1_000)))
    });
    // The host-side cost of sharing multicast payloads: same wire bytes,
    // deep Vec clones vs Arc pointer bumps on every fan-out leg.
    g.bench_function("fanout_deep_clone/8x100x1KiB", |b| {
        b.iter(|| std::hint::black_box(run_fanout(8, 100, || FatPayload(vec![7; 128]))))
    });
    g.bench_function("fanout_arc_shared/8x100x1KiB", |b| {
        b.iter(|| {
            std::hint::black_box(run_fanout(8, 100, || {
                SharedPayload(std::sync::Arc::new(vec![7; 128]))
            }))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
