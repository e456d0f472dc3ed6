//! Resumable workload state machines — the zero-context-switch engine.
//!
//! A simulated thread is an explicit state machine the engine steps *on
//! its own thread*, not an OS thread rendezvousing over channels (which
//! would cost two scheduler round-trips per simulated operation):
//!
//! * [`FutureThread`] — turns an ordinary `async` workload body into a
//!   steppable thread. [`FutureThread::resume`] feeds the previous
//!   operation's reply in and returns the next [`Step`]: either the next
//!   operation or completion. One plain function call per simulated op;
//!   no channels, no parking, no context switches. Workload authors
//!   write straight-line code (`ctx.load_u32(a).await`); the compiler
//!   builds the state machine, and [`OpCell`] smuggles each operation
//!   out of the suspended future and each reply back in.
//!
//! Determinism is structural rather than protocol-based: there is only
//! one thread, so there is no interleaving to get right. The engine
//! decides exactly when each core resumes — byte-identical schedules, no
//! OS in the loop.
//!
//! Panic handling is the caller's job: `resume` is a bare poll on the
//! busiest edge of the simulator, so it carries no per-call
//! `catch_unwind` (an unwind guard around every poll blocks inlining of
//! the whole generator descent and measurably caps throughput). A
//! workload panic simply unwinds out of `resume`; the machine's event
//! loop installs one guard per *run* and re-labels the payload with the
//! offending core.

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// One step of a resumable workload: the next operation it wants the
/// engine to perform, or completion.
#[derive(Debug, PartialEq, Eq)]
pub enum Step<Op> {
    /// The workload issued `Op` and is suspended until the engine
    /// resumes it with a reply.
    Op(Op),
    /// The workload finished. A panic never arrives here: it propagates
    /// out of [`FutureThread::resume`] (see the module docs).
    Done,
}

/// The shared mailbox between a suspended workload future and the
/// [`FutureThread`] stepping it: an outgoing operation slot and an
/// incoming reply slot. Single-threaded by construction (`Rc`), so plain
/// `Cell`s suffice.
pub struct OpCell<Op, Reply> {
    op: Cell<Option<Op>>,
    reply: Cell<Option<Reply>>,
}

impl<Op, Reply> OpCell<Op, Reply> {
    fn new() -> Rc<Self> {
        Rc::new(Self {
            op: Cell::new(None),
            reply: Cell::new(None),
        })
    }

    /// Issues `op` to the engine and suspends until it replies. This is
    /// the single await point every workload primitive is built from.
    pub fn call(self: &Rc<Self>, op: Op) -> CallFuture<Op, Reply> {
        CallFuture {
            cell: Rc::clone(self),
            op: Some(op),
        }
    }
}

/// Future returned by [`OpCell::call`]: first poll parks the operation
/// in the cell and suspends; the next poll (after the engine stored a
/// reply) completes with it.
pub struct CallFuture<Op, Reply> {
    cell: Rc<OpCell<Op, Reply>>,
    op: Option<Op>,
}

// No self-referential fields: the future is trivially movable.
impl<Op, Reply> Unpin for CallFuture<Op, Reply> {}

impl<Op, Reply> Future for CallFuture<Op, Reply> {
    type Output = Reply;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Reply> {
        let this = self.get_mut();
        if let Some(op) = this.op.take() {
            this.cell.op.set(Some(op));
            return Poll::Pending;
        }
        match this.cell.reply.take() {
            Some(reply) => Poll::Ready(reply),
            None => Poll::Pending,
        }
    }
}

/// Extracts a human-readable message from a caught panic payload
/// (`panic!` string literals and formatted strings; anything else gets a
/// placeholder).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic payload>".to_string())
}

/// Adapts an `async` workload body into an engine-steppable thread: the
/// engine's view of one simulated core's instruction stream.
///
/// ```
/// use ghostwriter_sim::{FutureThread, Step};
///
/// let mut t: FutureThread<u64, u64> = FutureThread::new(|cell| async move {
///     let doubled = cell.call(21).await;
///     assert_eq!(doubled, 42);
/// });
/// assert_eq!(t.resume(None), Step::Op(21));
/// assert_eq!(t.resume(Some(42)), Step::Done);
/// ```
pub struct FutureThread<Op, Reply> {
    cell: Rc<OpCell<Op, Reply>>,
    /// `None` once the workload has finished (or panicked).
    future: Option<Pin<Box<dyn Future<Output = ()>>>>,
}

impl<Op, Reply> FutureThread<Op, Reply> {
    /// Wraps a workload body. `f` receives the [`OpCell`] it must issue
    /// all operations through and returns the workload future.
    pub fn new<F, Fut>(f: F) -> Self
    where
        F: FnOnce(Rc<OpCell<Op, Reply>>) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        let cell = OpCell::new();
        let future: Pin<Box<dyn Future<Output = ()>>> = Box::pin(f(Rc::clone(&cell)));
        Self {
            cell,
            future: Some(future),
        }
    }

    /// True once the workload has run to completion (or panicked).
    pub fn is_done(&self) -> bool {
        self.future.is_none()
    }

    /// Feeds the previous operation's reply in and runs the workload to
    /// its next suspension point (or to completion). The first call
    /// passes `None` (there is nothing to reply to yet); every later
    /// call passes `Some(reply)` for the operation the previous call
    /// returned.
    ///
    /// # Panics
    /// A panic inside the workload body propagates to the caller —
    /// there is deliberately no per-poll unwind guard here. Wrapping
    /// every poll in `catch_unwind` fenced the optimizer out of the
    /// whole generator descent (the closure crosses an unwind ABI
    /// boundary) and cost up to 25% of full-simulation throughput;
    /// drivers that want captured panics install ONE guard around their
    /// whole run loop instead (the machine's event loop does exactly
    /// that). After a propagated panic the thread is poisoned and must
    /// not be resumed again.
    pub fn resume(&mut self, reply: Option<Reply>) -> Step<Op> {
        let future = self
            .future
            .as_mut()
            .expect("resumed a workload that already finished");
        if let Some(r) = reply {
            self.cell.reply.set(Some(r));
        }
        let mut cx = Context::from_waker(Waker::noop());
        match future.as_mut().poll(&mut cx) {
            Poll::Pending => {
                let op = self.cell.op.take().expect(
                    "workload suspended without issuing an operation \
                     (awaited something other than an engine call?)",
                );
                Step::Op(op)
            }
            Poll::Ready(()) => {
                self.future = None;
                Step::Done
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_through_ops_and_replies() {
        let mut t: FutureThread<u32, u32> = FutureThread::new(|cell| async move {
            let mut acc = 0u32;
            for i in 0..4 {
                acc += cell.call(i).await;
            }
            assert_eq!(acc, 60);
        });
        assert_eq!(t.resume(None), Step::Op(0));
        assert_eq!(t.resume(Some(0)), Step::Op(1));
        assert_eq!(t.resume(Some(10)), Step::Op(2));
        assert_eq!(t.resume(Some(20)), Step::Op(3));
        assert!(!t.is_done());
        assert_eq!(t.resume(Some(30)), Step::Done);
        assert!(t.is_done());
    }

    #[test]
    fn body_runs_lazily_until_first_resume() {
        // Nothing executes at construction; the first resume runs the
        // body up to its first engine call.
        let mut t: FutureThread<&'static str, ()> = FutureThread::new(|cell| async move {
            cell.call("first").await;
        });
        assert!(!t.is_done());
        assert_eq!(t.resume(None), Step::Op("first"));
    }

    #[test]
    fn immediate_completion_without_ops() {
        let mut t: FutureThread<u8, u8> = FutureThread::new(|_cell| async move {});
        assert_eq!(t.resume(None), Step::Done);
        assert!(t.is_done());
    }

    #[test]
    fn panic_propagates_to_the_caller_with_its_message() {
        // resume carries no unwind guard of its own: the workload's
        // panic unwinds straight out, payload intact, for whoever owns
        // the run loop to catch and attribute.
        let mut t: FutureThread<u8, u8> = FutureThread::new(|cell| async move {
            cell.call(1).await;
            panic!("workload exploded at op {}", 2);
        });
        assert_eq!(t.resume(None), Step::Op(1));
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.resume(Some(0));
        }))
        .expect_err("workload panic must propagate");
        assert_eq!(panic_message(payload), "workload exploded at op 2");
    }

    #[test]
    fn assert_failure_message_survives_propagation() {
        let mut t: FutureThread<u8, u64> = FutureThread::new(|cell| async move {
            let v = cell.call(0).await;
            assert_eq!(v, 7, "reply mismatch");
        });
        t.resume(None);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.resume(Some(9));
        }))
        .expect_err("assert failure must propagate");
        let msg = panic_message(payload);
        assert!(msg.contains("reply mismatch"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "already finished")]
    fn resuming_a_finished_workload_panics() {
        let mut t: FutureThread<u8, u8> = FutureThread::new(|_cell| async move {});
        assert_eq!(t.resume(None), Step::Done);
        t.resume(None);
    }

    #[test]
    fn non_engine_ops_keep_reply_types_independent() {
        // Ops and replies can be different types; the cell is generic.
        let mut t: FutureThread<String, Vec<u8>> = FutureThread::new(|cell| async move {
            let bytes = cell.call("read".to_string()).await;
            assert_eq!(bytes, vec![1, 2, 3]);
        });
        assert_eq!(t.resume(None), Step::Op("read".to_string()));
        assert_eq!(t.resume(Some(vec![1, 2, 3])), Step::Done);
    }
}
