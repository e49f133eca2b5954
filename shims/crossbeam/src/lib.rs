//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides the subset the workspace uses: `crossbeam::channel`
//! (unbounded MPSC channels, here built on `std::sync::mpsc`). Scoped
//! threads are `std::thread::scope`; nothing here wraps them.
//!
//! With the `check` feature, channels double as scheduling points of the
//! deterministic model checker (DESIGN.md §17): sends and receives park
//! at a coordinator decision, and a receive is enabled only when a
//! message is queued or every sender is gone, so a model thread never
//! blocks in a real `recv`. Threads outside a model run fall through to
//! the plain std behaviour; the default build compiles none of the
//! instrumentation.

/// Multi-producer channels (subset of `crossbeam::channel`).
pub mod channel {
    pub use std::sync::mpsc::{RecvError, SendError, TryRecvError};

    #[cfg(feature = "check")]
    use std::sync::atomic::{AtomicUsize, Ordering};
    #[cfg(feature = "check")]
    use std::sync::Arc;

    /// Shared channel bookkeeping for the model checker: queue length
    /// and live-sender count drive receive enabledness, so a model
    /// thread never enters a real blocking `recv`.
    #[cfg(feature = "check")]
    struct Meta {
        id: u64,
        len: AtomicUsize,
        senders: AtomicUsize,
    }

    /// Sending half of an unbounded channel (clonable).
    pub struct Sender<T> {
        inner: std::sync::mpsc::Sender<T>,
        #[cfg(feature = "check")]
        meta: Arc<Meta>,
    }

    /// Receiving half of an unbounded channel.
    pub struct Receiver<T> {
        inner: std::sync::mpsc::Receiver<T>,
        #[cfg(feature = "check")]
        meta: Arc<Meta>,
    }

    impl<T> Sender<T> {
        /// Enqueue a value; fails only if the receiver was dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            #[cfg(feature = "check")]
            parking_lot::sched::op_point(parking_lot::sched::OpKind::ChanSend, self.meta.id);
            let r = self.inner.send(value);
            #[cfg(feature = "check")]
            if r.is_ok() {
                self.meta.len.fetch_add(1, Ordering::SeqCst);
            }
            r
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            #[cfg(feature = "check")]
            self.meta.senders.fetch_add(1, Ordering::SeqCst);
            Sender {
                inner: self.inner.clone(),
                #[cfg(feature = "check")]
                meta: Arc::clone(&self.meta),
            }
        }
    }

    #[cfg(feature = "check")]
    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            self.meta.senders.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl<T> Receiver<T> {
        /// Dequeue a value, blocking until one is available; fails when
        /// the channel is empty and every sender was dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            #[cfg(feature = "check")]
            {
                let meta = Arc::clone(&self.meta);
                parking_lot::sched::blocking_point(
                    parking_lot::sched::OpKind::ChanRecv,
                    self.meta.id,
                    Arc::new(move || {
                        meta.len.load(Ordering::SeqCst) > 0
                            || meta.senders.load(Ordering::SeqCst) == 0
                    }),
                );
            }
            let r = self.inner.recv();
            #[cfg(feature = "check")]
            if r.is_ok() {
                self.meta.len.fetch_sub(1, Ordering::SeqCst);
            }
            r
        }

        /// Dequeue a value without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            #[cfg(feature = "check")]
            parking_lot::sched::op_point(parking_lot::sched::OpKind::ChanRecv, self.meta.id);
            let r = self.inner.try_recv();
            #[cfg(feature = "check")]
            if r.is_ok() {
                self.meta.len.fetch_sub(1, Ordering::SeqCst);
            }
            r
        }
    }

    /// Create an unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = std::sync::mpsc::channel();
        #[cfg(feature = "check")]
        let meta = Arc::new(Meta {
            id: parking_lot::sched::chan_id(),
            len: AtomicUsize::new(0),
            senders: AtomicUsize::new(1),
        });
        (
            Sender {
                inner: tx,
                #[cfg(feature = "check")]
                meta: Arc::clone(&meta),
            },
            Receiver {
                inner: rx,
                #[cfg(feature = "check")]
                meta,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn channel_roundtrip() {
        let (tx, rx) = super::channel::unbounded();
        tx.send(7u32).unwrap();
        assert_eq!(rx.recv().unwrap(), 7);
        assert!(matches!(
            rx.try_recv(),
            Err(super::channel::TryRecvError::Empty)
        ));
    }

    #[test]
    fn channel_disconnect() {
        let (tx, rx) = super::channel::unbounded::<u32>();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(1).unwrap();
        drop(tx2);
        assert_eq!(rx.recv().unwrap(), 1);
        assert!(rx.recv().is_err());
    }
}
