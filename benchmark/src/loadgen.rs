//! Open-loop load: a seeded Poisson schedule and the single-threaded loop
//! that sends each request when it is due and collects replies as they
//! arrive.  Independent users make an open loop: a request is sent on
//! schedule whether or not earlier ones were answered, and its latency
//! counts from when it was *due*, so a stall charges every request behind it.

use crate::stats::Rng;
use matrox_serve::{NetClient, PendingResponse, Request, Response, ServeHandle};
use std::time::{Duration, Instant};

/// The loop sleeps only while no reply is outstanding, and only until this
/// long before the next request is due; otherwise it polls and yields.  A
/// thread that sleeps gives its vCPU back, and on a busy shared host getting
/// it again takes from 80 us to several milliseconds, which would be charged
/// to the program as lateness and latency.
const SPIN_BEFORE_DUE: f64 = 1e-3;
/// How long after the last request was due the loop keeps waiting.
const DRAIN_TIMEOUT: f64 = 5.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Query,
    Solve,
}

/// One planned request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planned {
    /// Seconds after the start of the stream.
    pub due: f64,
    pub kind: Kind,
    pub tenant: usize,
    pub conn: usize,
    /// Which of the pre-generated right-hand sides it carries.
    pub rhs: usize,
}

pub struct Mix {
    pub rate: f64,
    pub seconds: f64,
    pub solve_share: f64,
    pub tenants: usize,
    pub conns: usize,
    pub rhs_pool: usize,
}

/// Poisson arrivals at `mix.rate` for `mix.seconds`.
pub fn schedule(rng: &mut Rng, mix: &Mix) -> Vec<Planned> {
    let mut plan = Vec::new();
    let mut at = 0.0;
    loop {
        at += -(1.0 - rng.unit()).ln() / mix.rate;
        if at >= mix.seconds {
            return plan;
        }
        let tenant = rng.below(mix.tenants);
        plan.push(Planned {
            due: at,
            kind: if rng.unit() < mix.solve_share {
                Kind::Solve
            } else {
                Kind::Query
            },
            tenant,
            conn: tenant % mix.conns,
            rhs: rng.below(mix.rhs_pool),
        });
    }
}

/// Where requests go: over TCP or straight into the reactor.
pub trait Transport {
    fn send(&mut self, id: usize, conn: usize, req: Request) -> Result<(), String>;
    /// Append the replies that have arrived, as (request id, response).
    fn poll(&mut self, arrived: &mut Vec<(usize, Response)>) -> Result<(), String>;
}

/// `NetClient::send` / `try_recv` on each connection.
pub struct Wire {
    clients: Vec<NetClient>,
    /// Per connection: correlation id -> request id.
    pending: Vec<std::collections::BTreeMap<u64, usize>>,
}

impl Wire {
    pub fn new(clients: Vec<NetClient>) -> Wire {
        let pending = clients.iter().map(|_| Default::default()).collect();
        Wire { clients, pending }
    }

    pub fn into_clients(self) -> Vec<NetClient> {
        self.clients
    }
}

impl Transport for Wire {
    fn send(&mut self, id: usize, conn: usize, req: Request) -> Result<(), String> {
        let corr = self.clients[conn].send(&req).map_err(|e| e.to_string())?;
        self.pending[conn].insert(corr, id);
        Ok(())
    }

    fn poll(&mut self, arrived: &mut Vec<(usize, Response)>) -> Result<(), String> {
        for (client, pending) in self.clients.iter_mut().zip(&mut self.pending) {
            if pending.is_empty() {
                continue;
            }
            while let Some((corr, resp)) = client.try_recv().map_err(|e| e.to_string())? {
                if let Some(id) = pending.remove(&corr) {
                    arrived.push((id, resp));
                }
            }
        }
        Ok(())
    }
}

/// `ServeHandle::submit` / `PendingResponse::try_take`, no socket.
pub struct InProcess {
    handle: ServeHandle,
    pending: Vec<(usize, PendingResponse)>,
}

impl InProcess {
    pub fn new(handle: ServeHandle) -> InProcess {
        InProcess {
            handle,
            pending: Vec::new(),
        }
    }
}

impl Transport for InProcess {
    fn send(&mut self, id: usize, _conn: usize, req: Request) -> Result<(), String> {
        self.pending.push((id, self.handle.submit(req)));
        Ok(())
    }

    fn poll(&mut self, arrived: &mut Vec<(usize, Response)>) -> Result<(), String> {
        let mut i = 0;
        while i < self.pending.len() {
            match self.pending[i].1.try_take() {
                Some(resp) => arrived.push((self.pending.swap_remove(i).0, resp)),
                None => i += 1,
            }
        }
        Ok(())
    }
}

/// What happened to one planned request.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub sent: Instant,
    /// `None`: no reply before the drain timeout.
    pub done: Option<Instant>,
    /// Seconds from due to reply.
    pub latency: f64,
    /// Seconds from due to sent.
    pub lateness: f64,
}

pub struct Driven {
    pub served: Vec<Served>,
    /// Requests sent per second of the stream, as achieved.
    pub achieved_rps: f64,
}

/// Send every planned request when due, hand each reply to `on_reply` as it
/// arrives.  One thread: it sleeps while nothing is outstanding and the next
/// request is not yet nearly due, and polls otherwise.
pub fn drive(
    plan: &[Planned],
    request: impl Fn(&Planned) -> Request,
    transport: &mut dyn Transport,
    mut on_reply: impl FnMut(usize, Response),
) -> Result<Driven, String> {
    let started = Instant::now();
    let mut served: Vec<Option<Served>> = vec![None; plan.len()];
    let mut arrived = Vec::new();
    let mut next = 0;
    let mut outstanding = 0usize;
    let last_due = plan.last().map_or(0.0, |p| p.due);
    loop {
        let now = started.elapsed().as_secs_f64();
        if next < plan.len() && now >= plan[next].due {
            let p = &plan[next];
            transport.send(next, p.conn, request(p))?;
            let sent = Instant::now();
            served[next] = Some(Served {
                sent,
                done: None,
                latency: f64::NAN,
                lateness: sent.duration_since(started).as_secs_f64() - p.due,
            });
            next += 1;
            outstanding += 1;
            continue;
        }
        if outstanding > 0 {
            transport.poll(&mut arrived)?;
            let done = Instant::now();
            for (id, resp) in arrived.drain(..) {
                if let Some(s) = served[id].as_mut() {
                    s.done = Some(done);
                    s.latency = done.duration_since(started).as_secs_f64() - plan[id].due;
                }
                outstanding -= 1;
                on_reply(id, resp);
            }
        }
        if next == plan.len() && (outstanding == 0 || now > last_due + DRAIN_TIMEOUT) {
            break;
        }
        let until_due = plan.get(next).map_or(0.0, |p| p.due - now);
        if outstanding > 0 || until_due <= SPIN_BEFORE_DUE {
            // Stay on the processor: see `SPIN_BEFORE_DUE`.
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_secs_f64(until_due - SPIN_BEFORE_DUE));
        }
    }
    // Every request was sent before the loop ended, so `served` lines up
    // with `plan`.
    let served: Vec<Served> = served.into_iter().flatten().collect();
    let sending = served
        .last()
        .map_or(f64::NAN, |s| s.sent.duration_since(started).as_secs_f64());
    Ok(Driven {
        achieved_rps: plan.len() as f64 / sending,
        served,
    })
}

/// `--self-test`: the schedule on fixed seeds, and the loop against a
/// transport that answers each request on the poll after it was sent.
pub fn self_test() -> Vec<(&'static str, bool)> {
    let mix = Mix {
        rate: 2000.0,
        seconds: 0.5,
        solve_share: 0.25,
        tenants: 4,
        conns: 2,
        rhs_pool: 8,
    };
    let plan = schedule(&mut Rng::new(6), &mix);
    let again = schedule(&mut Rng::new(6), &mix);
    let other = schedule(&mut Rng::new(7), &mix);
    let solves = plan.iter().filter(|p| p.kind == Kind::Solve).count() as f64 / plan.len() as f64;

    struct Echo(Vec<usize>);
    impl Transport for Echo {
        fn send(&mut self, id: usize, _conn: usize, _req: Request) -> Result<(), String> {
            self.0.push(id);
            Ok(())
        }
        fn poll(&mut self, arrived: &mut Vec<(usize, Response)>) -> Result<(), String> {
            arrived.extend(self.0.drain(..).map(|id| (id, Response::Done)));
            Ok(())
        }
    }
    let mut replies = 0usize;
    let driven = drive(
        &plan,
        |_| Request::Flush,
        &mut Echo(Vec::new()),
        |_, _| replies += 1,
    );
    let loop_ok = driven.as_ref().is_ok_and(|d| {
        d.served.len() == plan.len()
            && d.served.iter().all(|s| s.done.is_some() && s.lateness >= 0.0 && s.latency >= s.lateness)
            // A reply is there on the next poll; a generous bound for a loaded host.
            && crate::stats::median(&d.served.iter().map(|s| s.latency).collect::<Vec<_>>()) < 5e-3
    });
    vec![
        // 2000/s for 0.5 s: 1000 expected, sd about 32.
        ("schedule.count", (850..=1150).contains(&plan.len())),
        (
            "schedule.sorted_within_window",
            plan.windows(2).all(|w| w[0].due <= w[1].due) && plan.iter().all(|p| p.due < 0.5),
        ),
        ("schedule.same_seed_same_plan", plan == again),
        ("schedule.other_seed_other_plan", plan != other),
        ("schedule.solve_share", (0.18..=0.32).contains(&solves)),
        (
            "schedule.conn_follows_tenant",
            plan.iter()
                .all(|p| p.conn == p.tenant % 2 && p.tenant < 4 && p.rhs < 8),
        ),
        (
            "drive.every_request_sent_when_due_and_answered",
            loop_ok && replies == plan.len(),
        ),
    ]
}
