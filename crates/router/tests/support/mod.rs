//! Test support shared by the router suites.

use quape_core::{shot_seed, QpuBackend, QpuFactory};
use quape_qpu::BehavioralQpuFactory;
use quape_server::JobRequest;
use std::sync::{Arc, Condvar, Mutex};

/// A factory whose backend for the shot seeded `stall_seed` waits until
/// the gate opens: the shard worker running that shot stalls, so the
/// jobs queued behind it stay queued however fast shots run.
struct StallingFactory {
    stall_seed: u64,
    gate: Gate,
    inner: BehavioralQpuFactory,
}

impl QpuFactory for StallingFactory {
    fn create(&self, seed: u64) -> Box<dyn QpuBackend> {
        if seed == self.stall_seed {
            let (lock, cond) = &*self.gate.0;
            let open = lock.lock().expect("gate lock poisoned");
            drop(cond.wait_while(open, |open| !*open));
        }
        QpuFactory::create(&self.inner, seed)
    }
}

/// A gate that holds a job's first shot (see [`stall_first_shot`]).
#[derive(Clone, Default)]
pub struct Gate(Arc<(Mutex<bool>, Condvar)>);

impl Gate {
    /// Lets the held shot run.
    pub fn open(&self) {
        *self.0 .0.lock().expect("gate lock poisoned") = true;
        self.0 .1.notify_all();
    }
}

/// Makes `req`'s first shot wait for the returned gate to open, with
/// `inner` making every backend: outcomes are those `inner` gives.
pub fn stall_first_shot(req: &mut JobRequest, inner: BehavioralQpuFactory) -> Gate {
    let gate = Gate::default();
    req.factory = Arc::new(StallingFactory {
        stall_seed: shot_seed(req.base_seed, 0),
        gate: gate.clone(),
        inner,
    });
    gate
}
