//! The round harness the `dordis-net` integration tests share: a
//! session coordinator on the calling thread, one client thread per id,
//! every connection a TCP socket on 127.0.0.1.

// Each test binary uses its own subset.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use dordis_net::coordinator::NetRoundReport;
use dordis_net::runtime::{
    run_session_client, FailPoint, SessionClientOptions, SessionClientReport,
};
use dordis_net::session::{Seating, Session, SessionConfig};
use dordis_net::tcp::{TcpAcceptor, TcpChannel};
use dordis_net::transport::{Acceptor, Channel};
use dordis_net::NetError;
use dordis_secagg::client::{ClientInput, Identity};
use dordis_secagg::{ClientId, RoundParams};

/// A coordinator listener on an OS-assigned 127.0.0.1 port, and the
/// address clients dial.
pub fn listen() -> (TcpAcceptor, String) {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind 127.0.0.1");
    let addr = acceptor.local_addr();
    (acceptor, addr)
}

/// A client connection to `addr`.
pub fn dial(addr: &str) -> TcpChannel {
    TcpChannel::connect(addr).expect("connect")
}

/// A one-round roster session for `params` (round id included), with
/// [`SessionConfig::new`]'s defaults for everything else.
pub fn one_round(params: RoundParams) -> SessionConfig<'static> {
    SessionConfig {
        first_round: params.round,
        ..SessionConfig::new(1, Seating::Roster, Box::new(move |_, _| params.clone()))
    }
}

/// A claim-free session client: `fail(round)` scripts its failure and
/// `input(round)` its update. The receive window outlasts any stage
/// deadline a test sets; a silent failure lingers 2 s, past the
/// sub-second deadlines the silent-dropout tests run with.
pub fn roster_client(
    chan: &mut dyn Channel,
    id: ClientId,
    seed: u64,
    fail: impl FnMut(u64) -> Option<FailPoint>,
    mut input: impl FnMut(u64) -> ClientInput,
    identity: Option<Identity>,
) -> Result<SessionClientReport, NetError> {
    let opts = SessionClientOptions {
        id,
        rng_seed: seed,
        recv_timeout: Duration::from_secs(300),
        silent_linger: Duration::from_secs(2),
    };
    run_session_client(
        chan,
        &opts,
        |_| None,
        fail,
        |round, _params, _cohort, _payload| Ok(input(round)),
        |_| identity.clone(),
    )
}

/// Spawns `client(id)` on one thread per id, runs every round of `cfg`
/// on `acceptor` from the calling thread, ends the session and joins the
/// threads. Returns the per-round reports and what each client thread
/// returned.
///
/// # Panics
///
/// On any coordinator-side failure or client-thread panic.
pub fn run_session<'a, T: Send + 'static>(
    acceptor: &'a mut dyn Acceptor,
    cfg: SessionConfig<'a>,
    ids: impl IntoIterator<Item = ClientId>,
    client: impl Fn(ClientId) -> T + Send + Sync + 'static,
) -> (Vec<NetRoundReport>, BTreeMap<ClientId, T>) {
    let client = Arc::new(client);
    let handles: Vec<_> = ids
        .into_iter()
        .map(|id| {
            let client = Arc::clone(&client);
            (id, std::thread::spawn(move || client(id)))
        })
        .collect();
    let rounds = cfg.rounds;
    let mut session = Session::new(acceptor, cfg).expect("session");
    let reports = (0..rounds)
        .map(|_| session.run_round(&[]).expect("round"))
        .collect();
    session.finish();
    let returned = handles
        .into_iter()
        .map(|(id, h)| (id, h.join().expect("client thread")))
        .collect();
    (reports, returned)
}
