//! The component framework: passive protocol state machines that a host
//! actor drives.
//!
//! Group-communication layers (reliable broadcast, failure detector,
//! consensus, …) are written as [`Component`]s rather than actors so they
//! can be *embedded*: a replication server owns a broadcast component and a
//! database, and routes messages between them. A component never touches
//! the simulator directly — it pushes [`Action`]s into an [`Outbox`] and the
//! host turns them into sends and timers.

use repl_sim::{Context, Message, NodeId, SimDuration};

/// Size of each component's timer-tag namespace. Hosts give the *k*-th
/// embedded component the base `k * TAG_SPACE`; components keep their own
/// tags below `TAG_SPACE`.
pub const TAG_SPACE: u64 = 1 << 48;

/// An effect requested by a component.
#[derive(Debug)]
pub enum Action<M, E> {
    /// Send `M` to the node.
    Send(NodeId, M),
    /// Arm a timer with a component-local tag (must be `< TAG_SPACE`).
    SetTimer(SimDuration, u64),
    /// Deliver an event to the host.
    Event(E),
}

/// A buffer of [`Action`]s produced while a component handles one input.
///
/// # Examples
///
/// ```
/// use repl_gcs::{Outbox, Action};
/// use repl_sim::NodeId;
///
/// let mut out: Outbox<&'static str, u32> = Outbox::new();
/// out.send(NodeId::new(1), "hi");
/// out.event(7);
/// assert_eq!(out.len(), 2);
/// ```
#[derive(Debug)]
pub struct Outbox<M, E> {
    actions: Vec<Action<M, E>>,
}

impl<M, E> Outbox<M, E> {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Outbox {
            actions: Vec::new(),
        }
    }

    /// Queues a send.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.actions.push(Action::Send(to, msg));
    }

    /// Queues a send of `msg` to each target. The last target receives
    /// the original message; earlier targets receive clones, so an
    /// `n`-way multicast costs `n - 1` clones instead of `n`.
    pub fn multicast<I>(&mut self, targets: I, msg: M)
    where
        I: IntoIterator<Item = NodeId>,
        M: Clone,
    {
        let mut it = targets.into_iter().peekable();
        let mut msg = Some(msg);
        while let Some(t) = it.next() {
            let m = if it.peek().is_some() {
                msg.clone().expect("multicast payload present")
            } else {
                msg.take().expect("multicast payload present")
            };
            self.send(t, m);
        }
    }

    /// Queues a timer request.
    ///
    /// # Panics
    ///
    /// Panics if `tag >= TAG_SPACE`.
    pub fn timer(&mut self, delay: SimDuration, tag: u64) {
        assert!(tag < TAG_SPACE, "component timer tag out of range");
        self.actions.push(Action::SetTimer(delay, tag));
    }

    /// Queues an event for the host.
    pub fn event(&mut self, e: E) {
        self.actions.push(Action::Event(e));
    }

    /// Number of queued actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Drains the queued actions.
    pub fn drain(&mut self) -> Vec<Action<M, E>> {
        std::mem::take(&mut self.actions)
    }

    /// Absorbs a sub-component's outbox into this one.
    ///
    /// Sends are wrapped through `wrap`; timer tags are offset by `base`
    /// (which must be a multiple of [`TAG_SPACE`]); the sub-component's
    /// events are returned for the caller to process.
    pub fn absorb<M2, E2>(
        &mut self,
        mut sub: Outbox<M2, E2>,
        base: u64,
        mut wrap: impl FnMut(M2) -> M,
    ) -> Vec<E2> {
        let mut events = Vec::new();
        for action in sub.drain() {
            match action {
                Action::Send(to, m) => self.send(to, wrap(m)),
                Action::SetTimer(d, tag) => self.actions.push(Action::SetTimer(d, base + tag)),
                Action::Event(e) => events.push(e),
            }
        }
        events
    }
}

impl<M, E> Default for Outbox<M, E> {
    fn default() -> Self {
        Outbox::new()
    }
}

/// A passive protocol state machine driven by a host actor.
pub trait Component {
    /// Wire messages this component exchanges with its peers.
    type Msg;
    /// Events this component delivers to its host.
    type Event;

    /// Called once when the hosting actor starts.
    fn on_start(&mut self, _out: &mut Outbox<Self::Msg, Self::Event>) {}

    /// Called for each message addressed to this component.
    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Msg,
        out: &mut Outbox<Self::Msg, Self::Event>,
    );

    /// Called when one of this component's timers fires (component-local tag).
    fn on_timer(&mut self, _tag: u64, _out: &mut Outbox<Self::Msg, Self::Event>) {}
}

/// Applies a drained outbox to the simulator on behalf of a host actor.
///
/// `wrap` lifts the component's message type into the host's wire type, and
/// `base` is the component's timer-tag base (a multiple of [`TAG_SPACE`]).
/// Returns the component's events for the host to interpret.
pub fn apply_outbox<M, E, W>(
    ctx: &mut Context<'_, W>,
    mut out: Outbox<M, E>,
    base: u64,
    mut wrap: impl FnMut(M) -> W,
) -> Vec<E>
where
    W: Message,
{
    let mut events = Vec::new();
    for action in out.drain() {
        match action {
            Action::Send(to, m) => ctx.send(to, wrap(m)),
            Action::SetTimer(d, tag) => {
                ctx.set_timer(d, base + tag);
            }
            Action::Event(e) => events.push(e),
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_sim::SimDuration;

    #[test]
    fn outbox_collects_actions() {
        let mut out: Outbox<u8, ()> = Outbox::new();
        assert!(out.is_empty());
        out.send(NodeId::new(0), 1);
        out.timer(SimDuration::from_ticks(5), 9);
        out.event(());
        assert_eq!(out.len(), 3);
        let drained = out.drain();
        assert_eq!(drained.len(), 3);
        assert!(out.is_empty());
    }

    #[test]
    fn multicast_clones_to_each_target() {
        let mut out: Outbox<u8, ()> = Outbox::new();
        out.multicast([NodeId::new(0), NodeId::new(1), NodeId::new(2)], 7);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn absorb_wraps_and_offsets() {
        let mut sub: Outbox<u8, &'static str> = Outbox::new();
        sub.send(NodeId::new(1), 3);
        sub.timer(SimDuration::from_ticks(2), 4);
        sub.event("hello");
        let mut parent: Outbox<String, ()> = Outbox::new();
        let events = parent.absorb(sub, TAG_SPACE, |m| format!("wrapped{m}"));
        assert_eq!(events, vec!["hello"]);
        let actions = parent.drain();
        assert_eq!(actions.len(), 2);
        match &actions[0] {
            Action::Send(to, m) => {
                assert_eq!(*to, NodeId::new(1));
                assert_eq!(m, "wrapped3");
            }
            other => panic!("unexpected action {other:?}"),
        }
        match &actions[1] {
            Action::SetTimer(d, tag) => {
                assert_eq!(*d, SimDuration::from_ticks(2));
                assert_eq!(*tag, TAG_SPACE + 4);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "timer tag out of range")]
    fn oversized_tag_rejected() {
        let mut out: Outbox<u8, ()> = Outbox::new();
        out.timer(SimDuration::from_ticks(1), TAG_SPACE);
    }
}
