//! The message bus (Coordination & Communication layer, Fig 2).
//!
//! "Message buses will evolve to support semantic agent negotiation on top
//! of protocols like AMQP 1.0 for federated event-driven workflows" (§5.2).
//! This is a topic-based pub/sub bus with one FIFO queue per subscriber,
//! byte payloads, and channel accounting — the quantity Table 2's
//! composition-scaling claims are stated in.
//!
//! The bus is `Sync`: agents on threads share it behind an `Arc`. Delivery
//! within a topic preserves publish order per subscriber (each queue is
//! FIFO). The bus holds each queue weakly, so a dropped [`Subscription`]
//! is pruned on the next publish to its topic.

use bytes::Bytes;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, Weak};

/// A message on the bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Topic it was published to.
    pub topic: String,
    /// Logical sender name.
    pub from: String,
    /// Payload bytes (serialized by the sender).
    pub payload: Bytes,
}

impl Message {
    /// Convenience: a UTF-8 text message.
    pub fn text(topic: impl Into<String>, from: impl Into<String>, body: &str) -> Self {
        Message {
            topic: topic.into(),
            from: from.into(),
            payload: Bytes::copy_from_slice(body.as_bytes()),
        }
    }

    /// Payload as UTF-8 text, if valid.
    pub fn as_text(&self) -> Option<&str> {
        std::str::from_utf8(&self.payload).ok()
    }
}

/// One subscriber's FIFO queue.
type Queue = Mutex<VecDeque<Message>>;

/// A poisoned lock means a holder panicked mid-update; propagate it.
const POISONED: &str = "bus lock poisoned by a panicking holder";

/// A subscriber's end of a topic.
#[derive(Debug)]
pub struct Subscription {
    topic: String,
    queue: Arc<Queue>,
}

impl Subscription {
    /// Topic this subscription listens on.
    pub fn topic(&self) -> &str {
        &self.topic
    }

    fn queue(&self) -> MutexGuard<'_, VecDeque<Message>> {
        self.queue.lock().expect(POISONED)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Message> {
        self.queue().pop_front()
    }

    /// Drain everything currently queued.
    pub fn drain(&self) -> Vec<Message> {
        self.queue().drain(..).collect()
    }

    /// Number of queued messages.
    pub fn pending(&self) -> usize {
        self.queue().len()
    }
}

/// A topic-based publish/subscribe message bus.
#[derive(Debug, Default)]
pub struct MessageBus {
    topics: RwLock<BTreeMap<String, Vec<Weak<Queue>>>>,
    published: AtomicU64,
    delivered: AtomicU64,
}

impl MessageBus {
    /// Create an empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a subscription channel on `topic`.
    pub fn subscribe(&self, topic: impl Into<String>) -> Subscription {
        let topic = topic.into();
        let queue = Arc::new(Queue::default());
        self.topics
            .write()
            .expect(POISONED)
            .entry(topic.clone())
            .or_default()
            .push(Arc::downgrade(&queue));
        Subscription { topic, queue }
    }

    /// Publish a message; returns how many subscribers received it.
    /// Subscribers whose receiving end was dropped are pruned lazily.
    pub fn publish(&self, msg: Message) -> usize {
        self.published.fetch_add(1, Ordering::Relaxed);
        let mut delivered = 0usize;
        let mut topics = self.topics.write().expect(POISONED);
        if let Some(subs) = topics.get_mut(&msg.topic) {
            subs.retain(|queue| match queue.upgrade() {
                Some(queue) => {
                    queue.lock().expect(POISONED).push_back(msg.clone());
                    delivered += 1;
                    true
                }
                None => false,
            });
        }
        self.delivered
            .fetch_add(delivered as u64, Ordering::Relaxed);
        delivered
    }

    /// Number of open subscriber channels across all topics — the "channel
    /// count" of Table 2.
    pub fn channel_count(&self) -> usize {
        self.topics
            .read()
            .expect(POISONED)
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Number of distinct topics ever subscribed.
    pub fn topic_count(&self) -> usize {
        self.topics.read().expect(POISONED).len()
    }

    /// Total messages published.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Total deliveries (published × fanout).
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn pub_sub_delivers_in_order() {
        let bus = MessageBus::new();
        let sub = bus.subscribe("results");
        bus.publish(Message::text("results", "beamline", "r1"));
        bus.publish(Message::text("results", "beamline", "r2"));
        let msgs = sub.drain();
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0].as_text(), Some("r1"));
        assert_eq!(msgs[1].as_text(), Some("r2"));
    }

    #[test]
    fn fanout_counts_subscribers() {
        let bus = MessageBus::new();
        let _a = bus.subscribe("t");
        let _b = bus.subscribe("t");
        let n = bus.publish(Message::text("t", "x", "hello"));
        assert_eq!(n, 2);
        assert_eq!(bus.channel_count(), 2);
        assert_eq!(bus.delivered(), 2);
        assert_eq!(bus.published(), 1);
    }

    #[test]
    fn no_subscribers_no_delivery() {
        let bus = MessageBus::new();
        assert_eq!(bus.publish(Message::text("void", "x", "hi")), 0);
    }

    #[test]
    fn dropped_subscribers_are_pruned() {
        let bus = MessageBus::new();
        let a = bus.subscribe("t");
        drop(a);
        assert_eq!(bus.channel_count(), 1); // not yet pruned
        assert_eq!(bus.publish(Message::text("t", "x", "hi")), 0);
        assert_eq!(bus.channel_count(), 0); // pruned on publish
    }

    #[test]
    fn topics_are_isolated() {
        let bus = MessageBus::new();
        let a = bus.subscribe("alpha");
        let b = bus.subscribe("beta");
        bus.publish(Message::text("alpha", "x", "only-a"));
        assert_eq!(a.pending(), 1);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn concurrent_publishers_deliver_everything() {
        let bus = Arc::new(MessageBus::new());
        let sub = bus.subscribe("load");
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let bus = Arc::clone(&bus);
                std::thread::spawn(move || {
                    for i in 0..250 {
                        bus.publish(Message::text("load", format!("t{t}"), &format!("{i}")));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(sub.drain().len(), 1000);
        assert_eq!(bus.published(), 1000);
    }
}
