//! The repository's architecture rules, one `#[test]` each: the
//! structural decisions behind the stage architecture — one way to run
//! a round, one collection loop, stage transitions and client stages
//! that do no I/O, one masking path, one module per kernel, one cohort
//! decision per round, a protocol that does not link the paper's cost
//! model, no public function without a reader — checked as text over
//! the source tree and the manifests, so the plain `cargo test` fails as
//! soon as a change breaks one. A failure names the rule, the file and
//! the line.
//!
//! No regex crate is vendored, so the matching is three small parts:
//! a `grep -r`-style file walk ([`walk`]), a needle matcher whose `\b`
//! at either end asks for an identifier boundary ([`Needles`]), and one
//! enclosing-function scanner ([`charged_outside`]); the public-surface
//! rule reads each file's identifiers once ([`identifiers`]). Test code
//! is out of scope where a rule says so: [`Source::without_tests`] cuts a
//! file at its first column-0 `#[cfg(test)]` or `mod tests` line.
//! `benchmark/tests/manifest.rs` enforces the deleted names inside
//! `benchmark/` on its own.

use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::ops::RangeInclusive;
use std::path::Path;

/// This file: it spells out every needle, so the walk skips it.
const SELF: &str = "tests/architecture.rs";

/// One file of the tree: its path from the repository root and its text.
struct Source {
    path: String,
    text: String,
}

/// One matching line: where it is, what it says and, for the scanner,
/// the function it sits in.
struct Hit {
    path: String,
    line: usize,
    text: String,
    within: Option<String>,
}

impl fmt::Display for Hit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "  {}:{}: ", self.path, self.line)?;
        if let Some(name) = &self.within {
            write!(f, "(in fn {name}) ")?;
        }
        write!(f, "{}", self.text.trim())
    }
}

impl Source {
    /// The file at `path`, relative to the repository root.
    fn read(path: &str) -> Source {
        let full = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
        let bytes = fs::read(&full).unwrap_or_else(|e| panic!("read {path}: {e}"));
        Source {
            path: path.to_string(),
            text: String::from_utf8_lossy(&bytes).into_owned(),
        }
    }

    /// The file up to its first column-0 `#[cfg(test)]` or `mod tests`
    /// line: the code the program is built from.
    fn without_tests(&self) -> Source {
        let mut end = 0;
        for line in self.text.split_inclusive('\n') {
            if line.starts_with("#[cfg(test)]") || line.starts_with("mod tests") {
                break;
            }
            end += line.len();
        }
        Source {
            path: self.path.clone(),
            text: self.text[..end].to_string(),
        }
    }

    /// Every line `pred` accepts.
    fn grep(&self, mut pred: impl FnMut(&str) -> bool) -> Vec<Hit> {
        let lines = self.text.lines().enumerate();
        lines
            .filter(|(_, text)| pred(text))
            .map(|(i, text)| Hit {
                path: self.path.clone(),
                line: i + 1,
                text: text.to_string(),
                within: None,
            })
            .collect()
    }
}

/// Every file under `roots` (a root may be a single file), as `grep -r`
/// visits them: recursively, symlinks and `target/` build directories
/// skipped, in name order, except this file.
fn walk(roots: &[&str]) -> Vec<Source> {
    fn visit(path: &str, out: &mut Vec<Source>) {
        let full = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
        let Ok(entries) = fs::read_dir(&full) else {
            if path != SELF {
                out.push(Source::read(path));
            }
            return;
        };
        let mut entries: Vec<_> = entries
            .map(|e| e.expect("read a directory entry"))
            .collect();
        entries.sort_by_key(|e| e.file_name());
        for entry in entries {
            let kind = entry.file_type().expect("stat a directory entry");
            let name = entry.file_name();
            if (kind.is_dir() && name != "target") || kind.is_file() {
                visit(&format!("{path}/{}", name.to_string_lossy()), out);
            }
        }
    }
    let mut out = Vec::new();
    for root in roots {
        visit(root, &mut out);
    }
    out
}

/// The Rust files among `sources` (`grep --include='*.rs'`).
fn rust_files(sources: Vec<Source>) -> Vec<Source> {
    sources
        .into_iter()
        .filter(|s| s.path.ends_with(".rs"))
        .collect()
}

/// Every line of `sources` that `pred` accepts.
fn grep(sources: &[Source], mut pred: impl FnMut(&str) -> bool) -> Vec<Hit> {
    sources.iter().flat_map(|s| s.grep(&mut pred)).collect()
}

/// Every line of `sources` that holds one of `needles`.
fn lines_with(sources: &[Source], needles: &[&str]) -> Vec<Hit> {
    let needles = Needles::new(needles);
    grep(sources, |l| needles.in_line(l))
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Plain-text needles, any of which a line may hold. A `\b` at the
/// start or end of a needle is an identifier boundary there, as in
/// `grep -E`: the neighbouring character, if there is one, is not a
/// letter, digit or `_` — so `\brun_client\b` matches `run_client(`
/// but not `run_client_x`. The needles are indexed by first byte, so a
/// line is read once for all of them (a debug build searching the whole
/// tree once per needle takes a second).
struct Needles<'n>(Vec<Vec<(bool, &'n str, bool)>>);

impl<'n> Needles<'n> {
    fn new(needles: &[&'n str]) -> Needles<'n> {
        let mut by_first = vec![Vec::new(); 256];
        for needle in needles {
            let (left, needle) = match needle.strip_prefix(r"\b") {
                Some(rest) => (true, rest),
                None => (false, *needle),
            };
            let (right, needle) = match needle.strip_suffix(r"\b") {
                Some(rest) => (true, rest),
                None => (false, needle),
            };
            assert!(!needle.is_empty() && needle.is_ascii(), "needle {needle:?}");
            by_first[usize::from(needle.as_bytes()[0])].push((left, needle, right));
        }
        Needles(by_first)
    }

    fn in_line(&self, line: &str) -> bool {
        // A needle is ASCII, so where its first byte matches is a char
        // boundary, and so is where it ends.
        let bytes = line.as_bytes();
        (0..bytes.len()).any(|at| {
            self.0[usize::from(bytes[at])]
                .iter()
                .any(|&(left, needle, right)| {
                    bytes[at..].starts_with(needle.as_bytes())
                        && !(left && line[..at].ends_with(is_ident))
                        && !(right && line[at + needle.len()..].starts_with(is_ident))
                })
        })
    }
}

/// A line comment (`//`, `///`, `//!`) after any indentation.
fn is_comment(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

/// The function `line` declares, if it declares one: any indentation,
/// an optional `pub` or `pub(…)`, any of `const`, `async`, `unsafe` and
/// `extern "abi"`, then `fn name`.
fn declared_fn(line: &str) -> Option<&str> {
    let mut rest = line.trim_start();
    if let Some(after) = rest.strip_prefix("pub") {
        rest = match after.strip_prefix('(') {
            Some(scope) => scope.split_once(')')?.1,
            None => after,
        };
    }
    rest = rest.trim_start();
    let qualifiers = ["const ", "async ", "unsafe ", "extern "];
    while let Some(after) = qualifiers.iter().find_map(|q| rest.strip_prefix(q)) {
        rest = after.trim_start();
        if let Some(abi) = rest.strip_prefix('"') {
            rest = abi.split_once('"')?.1.trim_start();
        }
    }
    let name = rest.strip_prefix("fn ")?.trim_start();
    let end = name.find(|c: char| !is_ident(c)).unwrap_or(name.len());
    (end > 0).then(|| &name[..end])
}

/// The function `line` declares if it is a plain `pub fn` (any of the
/// qualifiers [`declared_fn`] reads; `pub(…)` is rustc's `dead_code`
/// lint's to check, not this scanner's).
fn declared_pub_fn(line: &str) -> Option<&str> {
    declared_fn(line).filter(|_| line.trim_start().starts_with("pub "))
}

/// The identifiers on the non-comment lines of `src`.
fn identifiers(src: &Source) -> HashSet<&str> {
    src.text
        .lines()
        .filter(|l| !is_comment(l))
        .flat_map(|l| l.split(|c: char| !is_ident(c)))
        .filter(|word| !word.is_empty())
        .collect()
}

/// Every plain `pub fn` that a `crates/*/src` file of `tree` declares
/// outside its test tail and that no other file of `tree` mentions as a
/// whole identifier on a non-comment line; the hit's `within` is its
/// name.
fn unread_pub_fns(tree: &[Source]) -> Vec<Hit> {
    let idents: Vec<HashSet<&str>> = tree.iter().map(identifiers).collect();
    let in_crate_src = |path: &str| {
        let mut parts = path.split('/');
        parts.next() == Some("crates") && parts.nth(1) == Some("src")
    };
    let mut hits = Vec::new();
    for (at, src) in tree.iter().enumerate() {
        if !in_crate_src(&src.path) {
            continue;
        }
        for (i, text) in src.without_tests().text.lines().enumerate() {
            let Some(name) = declared_pub_fn(text) else {
                continue;
            };
            let read = idents
                .iter()
                .enumerate()
                .any(|(other, words)| other != at && words.contains(name));
            if !read {
                hits.push(Hit {
                    path: src.path.clone(),
                    line: i + 1,
                    text: text.to_string(),
                    within: Some(name.to_string()),
                });
            }
        }
    }
    hits
}

/// Every line of `src` that `pred` accepts and whose enclosing function
/// — the last one declared above it, at any indentation — is not in
/// `allowed`. A line above the first declaration is charged to none.
fn charged_outside(src: &Source, pred: impl Fn(&str) -> bool, allowed: &[&str]) -> Vec<Hit> {
    let mut within: Option<&str> = None;
    let mut hits = Vec::new();
    for (i, text) in src.text.lines().enumerate() {
        within = declared_fn(text).or(within);
        if pred(text) && !within.is_some_and(|f| allowed.contains(&f)) {
            hits.push(Hit {
                path: src.path.clone(),
                line: i + 1,
                text: text.to_string(),
                within: Some(within.unwrap_or("<none>").to_string()),
            });
        }
    }
    hits
}

fn listing(hits: &[Hit]) -> String {
    let lines: Vec<String> = hits.iter().map(Hit::to_string).collect();
    format!("\n{}", lines.join("\n"))
}

/// Fails `rule` on any hit.
fn forbid(rule: &str, hits: &[Hit]) {
    assert!(
        hits.is_empty(),
        "{rule}: forbidden line(s):{}",
        listing(hits)
    );
}

/// Fails `rule` unless the number of hits for `what` is in `want`.
fn count(rule: &str, what: &str, hits: &[Hit], want: RangeInclusive<usize>) {
    assert!(
        want.contains(&hits.len()),
        "{rule}: {} line(s) with {what}, want {want:?}:{}",
        hits.len(),
        listing(hits),
    );
}

// ---------------------------------------------------------------------
// The rules.
// ---------------------------------------------------------------------

/// Deleted names, with `\b` where a shorter name must not match a live
/// longer one (`ClientOptions` inside `SessionClientOptions`).
const DELETED: &[&str] = &[
    // The poll-sweep engine, the unmask worker pool, in-process shards.
    "CollectMode",
    "PollSweep",
    "dordis_compute",
    "dordis-compute",
    "ComputePlane",
    "shard_of",
    "run_shards",
    "merge_shard_outcomes",
    "--collect",
    "--workers",
    "--shards",
    // The single-round twin of the session and its option structs.
    "run_coordinator",
    r"\bCoordinatorConfig\b",
    r"\brun_client\b",
    r"\bClientOptions\b",
    ".collect_masked(",
    "collect_unmasking",
    "announce: true",
    "announce: false",
    // The user-set ingress budget, read-interest pausing, admission.
    "ingress_budget",
    "ingress-budget",
    "set_ingress_hold",
    "should_pause",
    "should_resume",
    "fair_share",
    "paused_connections",
    "ingress_pauses_total",
    "struct Admission",
    "BENCH_ingress_burst",
    // The coordinator's second collection loop and its drain/file twins.
    "collect_stage",
    "collect_masked_chunks",
    "ChunkCollect",
    "drain_stage_frames",
    "drain_chunk_frames",
    "file_stage_frame",
    "file_chunk_frame",
    "drain_parked",
    "parked_alive",
    // The trainer's private aggregation path.
    "aggregate_private",
    // The in-process transports.
    "LoopbackChannel",
    "LoopbackHub",
    "LoopbackAcceptor",
    "WakeQueue",
    "EventedChannel",
    "pipe2",
    "verify_and_trim",
    // `core::protocol`'s second in-memory round, the silent-failure
    // linger option, the unread native cost table, the injected-sleep
    // pipeline bench.
    "run_protocol_round",
    "ProtocolRoundConfig",
    "ProtocolRoundOutcome",
    "dordis_core::protocol",
    "silent_linger",
    "rust_native",
    "BENCH_chunked_round",
    r"\bIdleWork\b",
    r"\bno_idle\b",
    r"\bunmask_step\b",
    r"\bgen_seed\b",
    r"\brandom_seed\b",
    r"\bcifar100_like\b",
    r"\breconstructed_self_masks\b",
    r"\breconstructed_secret_keys\b",
    // The frame reservoir: size-classed free list, counters, recycle hook.
    r"\bCLASS_SIZES\b",
    r"\bDEFAULT_RETAIN_CAP\b",
    r"\bpooled_bytes\b",
    r"\brecycle_frame\b",
    "frames_recycled_total",
    "frames_allocated_total",
    "frames_{recycled,allocated}_total",
    // The unread Gaussian sampler and rejection sampler.
    r"\bGaussianSampler\b",
    r"\bgaussian_vector\b",
    r"\bnext_u64_below\b",
    r"\bRebasingClient\b",
    r"\bRebasingRound\b",
    r"\bplan_conservative\b",
    r"\bConservativePlan\b",
    r"\bcentral_sigma\b",
    r"\borig_noise\b",
    r"\baggregate_uniform\b",
    r"\baggregate_weighted\b",
    // The cluster-simulation crate and the core module, both folded
    // into the one cost-model crate, `dordis-pipeline`.
    "dordis_sim",
    "dordis-sim",
    "dordis_core::timing",
];

/// One way to run a round, one way into it: the engines, knobs and
/// twins measured and deleted (the poll-sweep engine, the worker pool,
/// shards, the single-round twin of the session, the ingress budget,
/// the second collection loop, the trainer's private aggregation, the
/// frame reservoir, `core::protocol`'s second in-memory round, …) do
/// not come back, by name or flag, anywhere in the tree.
#[test]
fn deleted_engines_stay_deleted() {
    let tree = walk(&["crates", "src", "tests", "examples", "scripts", "README.md"]);
    forbid("Deleted engines stay deleted", &lines_with(&tree, DELETED));
}

/// One FL loop: `trainer::train` runs the one FL session loop over the
/// plain engine, so outside tests `crates/core/src` takes a FedAvg step in
/// one place and records the ledger in one place, through the
/// watermark-guarded entry point.
#[test]
fn one_fl_loop() {
    let rule = "One FL loop";
    let core: Vec<Source> = rust_files(walk(&["crates/core/src"]))
        .iter()
        .map(Source::without_tests)
        .collect();
    let step = lines_with(&core, &["apply_update("]);
    count(rule, "`apply_update(` in crates/core/src", &step, 1..=1);
    let record = lines_with(&core, &["record_round_at("]);
    count(
        rule,
        "`record_round_at(` in crates/core/src",
        &record,
        1..=1,
    );
    forbid(rule, &lines_with(&core, &["record_round("]));
}

/// One collection loop: a control stage is a one-chunk stage, so the
/// coordinator has a single collector over (stage, chunk), and the
/// round gate in `net::codec` is the only code that compares a frame's
/// round id with the current round.
#[test]
fn one_collection_loop() {
    let rule = "One collection loop";
    let coordinator = Source::read("crates/net/src/coordinator.rs");
    let collectors = coordinator.grep(|l| declared_fn(l) == Some("collect"));
    count(rule, "`fn collect` in coordinator.rs", &collectors, 1..=1);
    // `\bround\s*[<>]`: a `round` compared with `<` or `>`.
    let compares_round = |l: &str| {
        l.contains("frame_round")
            || l.match_indices("round").any(|(at, _)| {
                let rest = l[at + "round".len()..].trim_start();
                !l[..at].ends_with(is_ident) && rest.starts_with(['<', '>'])
            })
    };
    let session = Source::read("crates/net/src/session.rs");
    forbid(rule, &grep(&[coordinator, session], compares_round));
}

/// Stage transitions do no I/O: `net::stages` makes the round's
/// protocol decisions only, and every poll, send, clock read, sleep,
/// span, metric and fault hook goes through the one I/O context,
/// `coordinator::RoundIo`.
#[test]
fn stage_transitions_do_no_io() {
    let io = [
        r"\bReactor\b",
        r"\bTcpChannel\b",
        r"\bTelemetry\b",
        "Instant::now",
        ".poll(",
        "thread::sleep",
        "faults.trip",
    ];
    let stages = [Source::read("crates/net/src/stages.rs")];
    forbid("Stage transitions do no I/O", &lines_with(&stages, &io));
}

/// Client stages do no I/O: `net::client_stages` makes the session
/// client's round decisions only, one straight-line step per server
/// stage, and every receive, send, clock read, silent wait and fail
/// point goes through the one I/O context, `runtime::ClientIo`.
#[test]
fn client_stages_do_no_io() {
    let io = [
        r"\bChannel\b",
        r"\bTcpChannel\b",
        r"\brecv_env\b",
        r"\bsend_env\b",
        r"\bInstant::now\b",
        r"\bgo_silent\b",
        "thread::sleep",
    ];
    let stages = [Source::read("crates/net/src/client_stages.rs")];
    forbid("Client stages do no I/O", &lines_with(&stages, &io));
}

/// One reader, one writer, one broadcast: every `TcpChannel` read goes
/// through `FrameBuffer::read_from` (which stops at the frame being
/// assembled) and every send queues in its `WriteBuffer`, blocking or
/// registered; the coordinator and the session encode a broadcast in
/// one place, `coordinator::broadcast`.
#[test]
fn one_reader_one_writer() {
    let rule = "One reader, one writer";
    let tcp = [Source::read("crates/net/src/tcp.rs")];
    let second_path = ["fn push(", "self.stream.read(", "self.stream.write("];
    forbid(rule, &lines_with(&tcp, &second_path));
    let encoders = [
        Source::read("crates/net/src/coordinator.rs"),
        Source::read("crates/net/src/session.rs"),
    ];
    let framed = lines_with(&encoders, &["wire_message("]);
    count(
        rule,
        "`wire_message(` in coordinator.rs + session.rs",
        &framed,
        0..=1,
    );
}

/// One local cohort: every in-process session, test and bench runs its
/// clients through `dordis_net::local`, so client options are built in
/// that module, in `core::session`'s VRF-claims cohort and in `dordis
/// join` only.
#[test]
fn one_local_cohort() {
    let literals: Vec<Hit> =
        lines_with(&rust_files(walk(&["crates"])), &["SessionClientOptions {"])
            .into_iter()
            .filter(|h| !h.text.contains("struct SessionClientOptions {"))
            .collect();
    let mut files: Vec<&str> = literals.iter().map(|h| h.path.as_str()).collect();
    files.dedup();
    assert!(
        files.len() <= 3,
        "One local cohort: {} files under crates/ build a `SessionClientOptions` literal, want at most 3:{}",
        files.len(),
        listing(&literals),
    );
}

/// The client runtime's lines that mask a whole vector or split one.
fn masks_a_whole_vector(sources: &[Source]) -> Vec<Hit> {
    lines_with(sources, &["split_masked_input(", ".masked_input("])
}

/// One way to mask an input: the client runtime walks the round's
/// chunks through `Client::begin_masked_input` (mask a chunk, send it,
/// mask the next), so it may neither mask the whole vector nor split
/// one; and `secagg::client` holds a single masking loop —
/// `masked_input` is the one-chunk walk of the same cursor, the old
/// pass-per-mask loop lives on only as the test oracle.
#[test]
fn one_masking_path() {
    let rule = "One masking path";
    let runtime = [
        Source::read("crates/net/src/runtime.rs"),
        Source::read("crates/net/src/client_stages.rs"),
    ];
    forbid(rule, &masks_a_whole_vector(&runtime));
    let client = [Source::read("crates/secagg/src/client.rs").without_tests()];
    let masking = [
        "mask::expand_and_add(",
        "mask::add_self_mask_assign(",
        "mask::add_pairwise_mask_assign(",
    ];
    let loops = lines_with(&client, &masking);
    count(rule, "a mask call in secagg/src/client.rs", &loops, 1..=1);
}

/// Coordinator data plane at wire width: a masked-input frame's packed
/// payload goes to `Server::collect_masked_packed` as it came, so the
/// coordinator decodes no masked input and unpacks no chunk, and the
/// `Server`'s running sum is held at ring width (a `RingSum`), never as
/// a `Vec<u64>` field (`RoundOutcome::sum`, the widened result, stays
/// one).
#[test]
fn coordinator_data_plane_at_wire_width() {
    let rule = "Coordinator data plane at wire width";
    let coordinator = [Source::read("crates/net/src/coordinator.rs")];
    let decodes = ["decode_masked_input(", "pack::unpack("];
    forbid(rule, &lines_with(&coordinator, &decodes));
    let server = Source::read("crates/secagg/src/server.rs");
    // From `pub struct Server {` to the next column-0 `}`, as
    // `sed -n '/^pub struct Server {/,/^}/p'` prints it.
    let wide = Needles::new(&[r"\bsum: Vec<u64>"]);
    let mut inside = false;
    let wide_sum = server.without_tests().grep(|l| {
        let was = inside;
        if l.starts_with("pub struct Server {") {
            inside = true;
        } else if l.starts_with('}') {
            inside = false;
        }
        (was || inside) && wide.in_line(l)
    });
    forbid(rule, &wide_sum);
    let entry = lines_with(&[server], &["pub fn collect_masked_packed("]);
    count(
        rule,
        "`pub fn collect_masked_packed(` in server.rs",
        &entry,
        1..=usize::MAX,
    );
}

/// One module per kernel: `unsafe` and the intrinsics live in
/// `crypto::chacha20_avx512` (sixteen ChaCha20 blocks per pass),
/// `crypto::x25519_avx512` (the IFMA kernels on one field arithmetic:
/// the 8-lane ladder and, second, the Edwards pair under the VRF),
/// `crypto::sha256_ni` (the SHA-256 compression function) and
/// `dp::skellam_avx512` (eight Skellam table draws per step) alone (each
/// of the two crates denies `unsafe_code` and allows it on those
/// modules), the radix-2^25.5 ladder it replaced (`_mm512_mul_epu32` products)
/// stays deleted, and every same-secret run of agreements in `secagg`
/// goes through `KeyPair::agree_many`: the one `.agree(` left outside
/// tests is `Client::channel_key`, the cache-miss path.
#[test]
fn one_module_per_kernel() {
    let rule = "One module per kernel";
    let kernels = [
        "crates/crypto/src/chacha20_avx512.rs",
        "crates/crypto/src/x25519_avx512.rs",
        "crates/crypto/src/sha256_ni.rs",
        "crates/dp/src/skellam_avx512.rs",
    ];
    let crypto = walk(&["crates/crypto/src"]);
    forbid(rule, &lines_with(&crypto, &["_mm512_mul_epu32"]));
    let outside: Vec<Source> = rust_files(walk(&["crates/crypto/src", "crates/dp/src"]))
        .into_iter()
        .filter(|s| !kernels.contains(&s.path.as_str()))
        .collect();
    let unsafe_code = Needles::new(&[r"\bunsafe\b", "core::arch", "std::arch"]);
    forbid(
        rule,
        &grep(&outside, |l| unsafe_code.in_line(l) && !is_comment(l)),
    );
    for crate_dir in ["crypto", "dp"] {
        let lib = Source::read(&format!("crates/{crate_dir}/src/lib.rs"));
        let deny = lib.grep(|l| l.starts_with("#![deny(unsafe_code)]"));
        count(
            rule,
            &format!("`#![deny(unsafe_code)]` in {crate_dir}/src/lib.rs"),
            &deny,
            1..=usize::MAX,
        );
    }
    let agree = |l: &str| l.contains(".agree(") && !is_comment(l);
    let client = Source::read("crates/secagg/src/client.rs").without_tests();
    forbid(rule, &charged_outside(&client, agree, &["channel_key"]));
    let server = Source::read("crates/secagg/src/server.rs").without_tests();
    forbid(rule, &charged_outside(&server, agree, &[]));
}

/// Key set-up builds nothing at run time: every `dordis join` is a
/// fresh process, so the ed25519 curve constants, base comb and odd
/// multiples that X25519 keygen reads are checked-in static data
/// (`ed25519_base.rs`, regenerated and compared by a unit test), and
/// Shamir multiplies without tables.
#[test]
fn key_set_up_builds_nothing_at_run_time() {
    let setup = [
        Source::read("crates/crypto/src/ed25519.rs"),
        Source::read("crates/crypto/src/ed25519_base.rs"),
        Source::read("crates/crypto/src/shamir.rs"),
    ];
    let lazy = lines_with(&setup, &["OnceLock"]);
    forbid("Key set-up builds nothing at run time", &lazy);
}

/// The lines of `core::session` outside its tests that touch a secret
/// VRF key or the offline cohort plan from anywhere but the functions
/// allowed to.
fn cohort_decisions_outside(session: &Source) -> Vec<Hit> {
    let allowed = [
        "vrf_key_for",
        "vrf_registry",
        "planned_cohorts",
        "train_session",
        "local_client",
    ];
    let touches = Needles::new(&["vrf_key_for(", "planned_cohorts("]);
    charged_outside(&session.without_tests(), |l| touches.in_line(l), &allowed)
}

/// One cohort decision per round: the networked FL session takes each
/// round's cohort back from the coordinator, which holds the public VRF
/// registry only; inside `core::session`, secret VRF keys and the
/// offline cohort plan may be touched only by the key/registry
/// stand-ins themselves, the in-memory reference engine and the client
/// thread body.
#[test]
fn one_cohort_decision_per_round() {
    let session = Source::read("crates/core/src/session.rs");
    let hits = cohort_decisions_outside(&session);
    forbid("One cohort decision per round", &hits);
}

/// One networked coordinator: `core::session` opens its coordinator
/// `Session` in one function, which the unreplicated session, the
/// failover primary and its successor all run, and kill points fire
/// only inside `dordis-net`, so the FL driver sees an injected kill as
/// one typed error.
#[test]
fn one_networked_coordinator() {
    let rule = "One networked coordinator";
    let session = [Source::read("crates/core/src/session.rs").without_tests()];
    let opened = lines_with(&session, &[r"\bSession::new("]);
    count(
        rule,
        "`Session::new(` in core/src/session.rs",
        &opened,
        1..=1,
    );
    let core = rust_files(walk(&["crates/core/src"]));
    forbid(rule, &lines_with(&core, &[".trip("]));
}

/// The protocol does not link the paper's model: what a round is cut
/// into, `ChunkPlan`, is `dordis-secagg`'s, and the cost model that
/// prices the cut and picks its chunk count, `dordis-pipeline`, is a
/// dependency of no protocol crate, for its tests either.
#[test]
fn protocol_does_not_link_the_paper_model() {
    let rule = "The protocol does not link the paper model";
    let protocol = ["crypto", "dp", "secagg", "net", "xnoise", "fl", "telemetry"];
    let model = Needles::new(&[r"\bdordis-pipeline\b"]);
    for krate in protocol {
        let manifest = Source::read(&format!("crates/{krate}/Cargo.toml"));
        let mut table = String::new();
        let links = manifest.grep(|line| {
            if line.starts_with('[') {
                table = line.trim().to_string();
            }
            let deps = ["[dependencies", "[dev-dependencies"].iter().any(|t| {
                table.starts_with(&format!("{t}]")) || table.starts_with(&format!("{t}."))
            });
            deps && model.in_line(line)
        });
        forbid(rule, &links);
    }
}

/// Every tree a reader of a public function may sit in.
const READERS: &[&str] = &[
    "crates",
    "src",
    "tests",
    "examples",
    "benchmark/src",
    "benchmark/tests",
];

/// The `pub fn`s that may stay with no reader outside their file:
/// (file, name, why).
const UNREAD_PUB_FNS: &[(&str, &str, &str)] = &[(
    "crates/dp/src/rdp.rs",
    "skellam_rdp",
    "ROADMAP item 14b makes the accountant call it",
)];

/// No public function without a reader: every plain `pub fn` in
/// `crates/*/src` outside its file's test tail is named, as a whole
/// identifier on a non-comment line, by some other Rust file of the
/// tree — a caller in another module or crate, a test, an example or the
/// reference benchmark — or is allow-listed above with its reason. A
/// function only its own file reads is not `pub`; one only its own
/// tests read is `#[cfg(test)]`, or goes.
#[test]
fn no_public_fn_without_a_reader() {
    let rule = "No public fn without a reader";
    let tree = rust_files(walk(READERS));
    let is = |h: &Hit, path: &str, name: &str| h.path == path && h.within.as_deref() == Some(name);
    let (listed, unread): (Vec<Hit>, Vec<Hit>) = unread_pub_fns(&tree).into_iter().partition(|h| {
        UNREAD_PUB_FNS
            .iter()
            .any(|&(path, name, _)| is(h, path, name))
    });
    forbid(rule, &unread);
    for &(path, name, why) in UNREAD_PUB_FNS {
        assert!(
            listed.iter().any(|h| is(h, path, name)),
            "{rule}: `{name}` in {path} is allow-listed ({why}) but is no unread `pub fn` \
             there any more: drop its entry"
        );
    }
}

// ---------------------------------------------------------------------
// The helper, on inline source.
// ---------------------------------------------------------------------

fn inline(path: &str, text: &str) -> Source {
    Source {
        path: path.to_string(),
        text: text.to_string(),
    }
}

#[test]
fn a_call_is_charged_to_its_pub_crate_fn_or_indented_method() {
    let session = inline(
        "crates/core/src/session.rs",
        "pub fn planned_cohorts(spec: &TaskSpec) -> Vec<Vec<ClientId>> {\n\
         \x20   (0..4).map(|id| vrf_key_for(spec.seed, id)).collect()\n\
         }\n\
         \n\
         pub(crate) fn statics(spec: &TaskSpec) {\n\
         \x20   let key = vrf_key_for(spec.seed, 0);\n\
         }\n\
         \n\
         impl Planner {\n\
         \x20   pub(crate) const unsafe fn plan(&self) {\n\
         \x20       planned_cohorts(&self.spec);\n\
         \x20   }\n\
         }\n\
         \n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   fn helper() { vrf_key_for(1, 2); }\n\
         }\n",
    );
    let hits = cohort_decisions_outside(&session);
    let charged: Vec<(usize, Option<&str>)> =
        hits.iter().map(|h| (h.line, h.within.as_deref())).collect();
    assert_eq!(charged, [(6, Some("statics")), (11, Some("plan"))]);
}

#[test]
fn declarations_are_read_at_any_indentation_and_visibility() {
    assert_eq!(declared_fn("fn collect<T>("), Some("collect"));
    assert_eq!(
        declared_fn("    pub(crate) fn send(&mut self"),
        Some("send")
    );
    assert_eq!(declared_fn("\tpub(in crate::x) async fn go()"), Some("go"));
    assert_eq!(
        declared_fn("pub const unsafe extern \"C\" fn k()"),
        Some("k")
    );
    assert_eq!(declared_fn("    // fn collect("), None);
    assert_eq!(declared_fn("let f = fn_ptr;"), None);
    assert_eq!(declared_fn("pub struct Server {"), None);
}

#[test]
fn masking_the_whole_vector_in_client_stages_fails() {
    let stages = inline(
        "crates/net/src/client_stages.rs",
        "let masked = client.begin_masked_input(&input)?;\n\
         let whole = client.masked_input(&input)?;\n",
    );
    let hits = masks_a_whole_vector(&[stages]);
    assert_eq!(hits.iter().map(|h| h.line).collect::<Vec<_>>(), [2]);
}

fn has(line: &str, needle: &str) -> bool {
    Needles::new(&[needle]).in_line(line)
}

#[test]
fn an_identifier_needle_does_not_match_a_longer_identifier() {
    let needle = r"\brun_client\b";
    assert!(has("    run_client(&opts)?;", needle));
    assert!(has("use dordis_net::runtime::run_client;", needle));
    assert!(!has("    run_client_x(&opts)?;", needle));
    assert!(!has("    prerun_client(&opts)?;", needle));
    assert!(!has("SessionClientOptions {", r"\bClientOptions\b"));
    assert!(has("ClientOptions {", r"\bClientOptions\b"));
    // A boundary only where the needle asks for one.
    assert!(has("let sum: Vec<u64>,", r"\bsum: Vec<u64>"));
    assert!(!has("let checksum: Vec<u64>,", r"\bsum: Vec<u64>"));
    assert!(has("masked_input_s", "masked_input"));
}

#[test]
fn the_test_tail_is_cut_at_column_zero_only() {
    let src = inline(
        "x.rs",
        "fn a() {}\n    #[cfg(test)]\n    mod tests_inner {}\nfn b() {}\n#[cfg(test)]\nmod tests {}\n",
    );
    assert_eq!(src.without_tests().text.lines().count(), 4);
}

/// The names `unread_pub_fns` reports for `tree`.
fn unread_names(tree: &[Source]) -> Vec<String> {
    let hits = unread_pub_fns(tree);
    hits.into_iter().filter_map(|h| h.within).collect()
}

#[test]
fn a_pub_fn_read_only_in_its_own_file_is_unread() {
    let lib = inline(
        "crates/dp/src/math.rs",
        "pub fn ln_gamma(x: f64) -> f64 { x }\n\
         pub fn ln_factorial(n: u64) -> f64 { ln_gamma(n as f64 + 1.0) }\n",
    );
    let user = inline("crates/dp/src/rdp.rs", "use crate::math::ln_factorial;\n");
    assert_eq!(unread_names(&[lib, user]), ["ln_gamma"]);
}

#[test]
fn a_reader_under_benchmark_src_counts() {
    let lib = || {
        inline(
            "crates/xnoise/src/enforcement.rs",
            "    pub const fn perturb() {}\n",
        )
    };
    let bench = inline("benchmark/src/fl.rs", "    enforcement::perturb();\n");
    assert!(unread_names(&[lib(), bench]).is_empty());
    assert_eq!(unread_names(&[lib()]), ["perturb"]);
}

#[test]
fn a_mention_on_a_comment_line_is_no_reader() {
    let lib = inline(
        "crates/net/src/pool.rs",
        "pub fn high_water() -> u64 { 0 }\n",
    );
    let doc = inline(
        "crates/net/src/reactor.rs",
        "/// See [`BytePool::high_water`].\n    // high_water() is sticky\n",
    );
    assert_eq!(unread_names(&[lib, doc]), ["high_water"]);
}

#[test]
fn pub_crate_and_test_tail_fns_are_not_checked() {
    let lib = inline(
        "crates/fl/src/eval.rs",
        "pub(crate) fn mean_loss() {}\n\
         pub(super) fn helper() {}\n\
         fn private() {}\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   pub fn oracle() {}\n\
         }\n",
    );
    assert!(unread_names(&[lib]).is_empty());
}
