//! The variable-time multiplications must stay on public inputs: a
//! `vartime_` call site anywhere in `src/` other than the two
//! verification routines fails here.

use std::path::Path;

/// Every non-test, non-comment line of `file` that mentions `vartime_`
/// without defining it, as `(impl type, fn name, line)`.
fn call_sites(file: &Path) -> Vec<(String, String, String)> {
    let source = std::fs::read_to_string(file).expect("source file");
    // Unit tests sit at the end of each file and may call anything.
    let code = source
        .split("#[cfg(test)]\nmod tests")
        .next()
        .expect("text");
    let word_after = |line: &str, keyword: &str| -> Option<String> {
        let rest = &line[line.find(keyword)? + keyword.len()..];
        Some(
            rest.chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect(),
        )
    };
    let (mut in_impl, mut in_fn) = (String::new(), String::new());
    let mut found = Vec::new();
    for line in code.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        if line.starts_with("impl ") {
            in_impl = word_after(line, "impl ").expect("impl name");
        }
        if let Some(name) = word_after(trimmed, "fn ") {
            in_fn = name;
            if in_fn.starts_with("vartime_") {
                continue; // The definition itself.
            }
        }
        if trimmed.contains("vartime_") {
            found.push((in_impl.clone(), in_fn.clone(), trimmed.to_string()));
        }
    }
    found
}

#[test]
fn vartime_multiplications_are_called_from_verification_only() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut outside = Vec::new();
    let mut inside = 0;
    for entry in std::fs::read_dir(&src).expect("src") {
        let path = entry.expect("entry").path();
        let file = path
            .file_name()
            .expect("name")
            .to_string_lossy()
            .to_string();
        for (in_impl, in_fn, line) in call_sites(&path) {
            let allowed = matches!(
                (file.as_str(), in_impl.as_str(), in_fn.as_str()),
                ("ed25519.rs", "VerifyingKey", "verify") | ("vrf.rs", "VrfPublicKey", "verify")
            ) || in_fn.starts_with("vartime_");
            if allowed {
                inside += 1;
            } else {
                outside.push(format!("{file}: {in_impl}::{in_fn}: {line}"));
            }
        }
    }
    assert!(
        outside.is_empty(),
        "vartime call on a non-public path:\n{outside:#?}"
    );
    // One in the signature check, one in the VRF proof check, the two
    // public forms handing their tables to the shared Straus loop, the
    // pair form's three (the IFMA kernel and the two scalar forms it falls
    // back to), and the kernel's entry calling its body.
    assert_eq!(inside, 8, "the scan no longer sees the known call sites");
}
