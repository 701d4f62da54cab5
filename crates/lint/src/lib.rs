//! `dhg-lint`: a std-only source auditor for the properties the test
//! suite cannot see from the outside — determinism hazards, unsafe
//! hygiene, and panic discipline on the serving request path.
//!
//! The scanner is deliberately token-level (no external parser): it
//! strips comments and string literals with a small line-state machine,
//! tracks `#[cfg(test)]` spans by brace matching, and applies each rule
//! as a substring/boundary check over the stripped text. That keeps the
//! crate dependency-free and the rules cheap enough to run in tier-1.
//!
//! Rules:
//!
//! | code  | what it flags |
//! |-------|---------------|
//! | DL001 | `HashMap`/`HashSet` iteration in determinism-critical crates |
//! | DL002 | wall-clock / entropy calls (`Instant::now`, `thread_rng`, …) outside sanctioned sites |
//! | DL003 | unordered float reductions (`.sum::<f32>()`) in hot-path crates |
//! | DL004 | `unsafe` without a `SAFETY:` comment in the preceding lines |
//! | DL005 | `unwrap`/`expect`/`assert!`/`panic!` on the serving request path |
//! | DL006 | retry loops without a backoff/sleep call on the request path |
//! | DL007 | a materialised transpose (`transpose_last2()`) as a matmul operand in hot-path crates |
//! | DL008 | a per-call OS thread (`thread::spawn`/`scope`/`Builder`) in kernel crates, outside the worker pool |
//!
//! Findings can be suppressed through an allowlist file (`lint.allow` at
//! the scan root): one entry per line, `CODE path-suffix content-fragment
//! # reason`. Entries that match nothing are reported so the allowlist
//! cannot silently rot.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lint rule identifiers. Stable — scripts and the allowlist key on the
/// `DLxxx` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// Hash-order iteration in a determinism-critical crate.
    Dl001,
    /// Wall clock or entropy outside sanctioned sites.
    Dl002,
    /// Unordered float reduction in a hot-path crate.
    Dl003,
    /// `unsafe` without a nearby `SAFETY:` comment.
    Dl004,
    /// Panicking call on the serving request path.
    Dl005,
    /// Retry loop without a backoff call on the request path.
    Dl006,
    /// Materialised transpose as a matmul operand in a hot-path crate.
    Dl007,
    /// Per-call OS thread in a kernel crate, outside the worker pool.
    Dl008,
}

impl Code {
    /// All rules, in order.
    pub const ALL: [Code; 8] = [
        Code::Dl001,
        Code::Dl002,
        Code::Dl003,
        Code::Dl004,
        Code::Dl005,
        Code::Dl006,
        Code::Dl007,
        Code::Dl008,
    ];

    /// The stable `DLxxx` name.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Dl001 => "DL001",
            Code::Dl002 => "DL002",
            Code::Dl003 => "DL003",
            Code::Dl004 => "DL004",
            Code::Dl005 => "DL005",
            Code::Dl006 => "DL006",
            Code::Dl007 => "DL007",
            Code::Dl008 => "DL008",
        }
    }

    /// Parse a `DLxxx` name (used by the allowlist loader).
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL.iter().copied().find(|c| c.as_str() == s)
    }

    /// One-line rule description for reports.
    pub fn description(self) -> &'static str {
        match self {
            Code::Dl001 => "hash-order iteration in a determinism-critical crate",
            Code::Dl002 => "wall clock / entropy outside sanctioned sites",
            Code::Dl003 => "unordered float reduction in a hot-path crate",
            Code::Dl004 => "`unsafe` without a SAFETY: comment",
            Code::Dl005 => "panicking call on the serving request path",
            Code::Dl006 => "retry loop without a backoff call on the request path",
            Code::Dl007 => "materialised transpose as a matmul operand in a hot-path crate",
            Code::Dl008 => "per-call OS thread in a kernel crate, outside the worker pool",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One rule violation at one source line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub code: Code,
    /// Path as scanned (repo-relative when walking a tree).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human explanation with the offending token.
    pub message: String,
    /// The raw (unstripped) source line.
    pub raw: String,
    /// The raw line plus the next three lines, joined — allowlist
    /// fragments match against this so multi-line macro calls can be
    /// identified by their message string.
    pub context: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {} {}", self.path, self.line, self.code, self.message)
    }
}

// ---------------------------------------------------------------------------
// line-state stripper
// ---------------------------------------------------------------------------

/// Cross-line lexer state: inside a (possibly nested) block comment,
/// inside a normal string, or inside a raw string with `hashes` hashes.
#[derive(Default)]
struct StripState {
    block_depth: usize,
    in_string: bool,
    raw_hashes: Option<usize>,
}

/// Replace comments and string/char-literal contents with spaces so rule
/// patterns can never fire inside them. Length is not preserved; only
/// token adjacency matters to the rules.
fn strip_line(state: &mut StripState, line: &str) -> String {
    let b = line.as_bytes();
    let mut out = String::with_capacity(line.len());
    let mut i = 0;
    while i < b.len() {
        if let Some(h) = state.raw_hashes {
            // scan for `"###...` with exactly h hashes
            if b[i] == b'"' && b.len() - i > h && b[i + 1..i + 1 + h].iter().all(|&c| c == b'#') {
                state.raw_hashes = None;
                i += 1 + h;
                out.push(' ');
            } else {
                i += 1;
            }
            continue;
        }
        if state.block_depth > 0 {
            if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                state.block_depth += 1;
                i += 2;
            } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                state.block_depth -= 1;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        if state.in_string {
            match b[i] {
                b'\\' => i += 2,
                b'"' => {
                    state.in_string = false;
                    out.push(' ');
                    i += 1;
                }
                _ => i += 1,
            }
            continue;
        }
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => break, // line comment
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                state.block_depth = 1;
                i += 2;
            }
            b'r' if i + 1 < b.len()
                && (b[i + 1] == b'"' || b[i + 1] == b'#')
                && !prev_is_ident(b, i) =>
            {
                // raw string r"..." / r#"..."#
                let mut j = i + 1;
                let mut hashes = 0;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' {
                    state.raw_hashes = Some(hashes);
                    out.push(' ');
                    i = j + 1;
                } else {
                    out.push(b[i] as char);
                    i += 1;
                }
            }
            b'"' => {
                state.in_string = true;
                out.push(' ');
                i += 1;
            }
            b'\'' => {
                // char literal vs lifetime: 'x' / '\n' are literals,
                // 'a (no closing quote nearby) is a lifetime
                if i + 2 < b.len() && b[i + 1] == b'\\' {
                    let mut j = i + 2;
                    while j < b.len() && b[j] != b'\'' {
                        j += 1;
                    }
                    out.push(' ');
                    i = j + 1;
                } else if i + 2 < b.len() && b[i + 2] == b'\'' {
                    out.push(' ');
                    i += 3;
                } else {
                    out.push('\''); // lifetime
                    i += 1;
                }
            }
            c => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    out
}

fn prev_is_ident(b: &[u8], i: usize) -> bool {
    i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_')
}

/// `needle` occurring in `hay` on identifier boundaries — so `assert!(`
/// does not match inside `debug_assert!(` and `unsafe` does not match
/// inside `unsafe_cell`. Boundary checks only apply on the sides of the
/// needle that are themselves identifier characters (so `.unwrap()` can
/// follow a receiver).
fn find_token(hay: &str, needle: &str) -> bool {
    let b = hay.as_bytes();
    let n = needle.as_bytes();
    let check_before = n.first().is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_');
    let check_after = n.last().is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_');
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let end = at + needle.len();
        let ok_before = !check_before || !prev_is_ident(b, at);
        let ok_after = !check_after
            || end >= b.len()
            || !(b[end].is_ascii_alphanumeric() || b[end] == b'_');
        if ok_before && ok_after {
            return true;
        }
        from = end;
    }
    false
}

// ---------------------------------------------------------------------------
// per-file scan
// ---------------------------------------------------------------------------

/// Per-line facts the rules consume.
struct FileView {
    raw: Vec<String>,
    stripped: Vec<String>,
    in_test: Vec<bool>,
}

fn view(source: &str) -> FileView {
    let raw: Vec<String> = source.lines().map(str::to_string).collect();
    let mut state = StripState::default();
    let stripped: Vec<String> = raw.iter().map(|l| strip_line(&mut state, l)).collect();

    // #[cfg(test)] span tracking: after the attribute, the next block
    // opened at depth N closes the test span when depth returns to N.
    let mut in_test = vec![false; raw.len()];
    let mut pending = false;
    let mut test_until_depth: Option<i64> = None;
    let mut depth: i64 = 0;
    for (i, line) in stripped.iter().enumerate() {
        if line.contains("#[cfg(test)]") {
            pending = true;
        }
        let before = depth;
        for ch in line.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    if pending && test_until_depth.is_none() {
                        test_until_depth = Some(before);
                        pending = false;
                    }
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if pending || test_until_depth.is_some() {
            in_test[i] = true;
        }
        if let Some(base) = test_until_depth {
            if depth <= base {
                test_until_depth = None;
            }
        }
    }
    FileView { raw, stripped, in_test }
}

/// Crates whose sorted/replayable behavior the test suite depends on.
const DETERMINISM_CRATES: [&str; 6] = [
    "crates/tensor/",
    "crates/nn/",
    "crates/core/",
    "crates/hypergraph/",
    "crates/skeleton/",
    "crates/train/",
];

/// Crates whose inner loops dominate benchmark numbers.
const HOT_PATH_CRATES: [&str; 2] = ["crates/tensor/", "crates/hypergraph/"];

/// Crates whose kernels shard work over `dhg_tensor::parallel` (DL008
/// scope): a thread started per call there bypasses the persistent
/// worker pool. `dhg-train`'s long-lived service threads are out of scope.
const KERNEL_CRATES: [&str; 5] =
    ["crates/tensor/", "crates/hypergraph/", "crates/nn/", "crates/core/", "crates/skeleton/"];

/// The one file of [`KERNEL_CRATES`] that starts threads: the worker pool.
const POOL_FILE: &str = "crates/tensor/src/parallel.rs";

/// Files forming the serving request path (DL005 scope): the in-process
/// engine and its frame streams, plus the network layers a remote
/// request traverses (wire decoding, routing, the TCP frontend).
const REQUEST_PATH_FILES: [&str; 4] = [
    "crates/train/src/serve.rs",
    "crates/train/src/proto.rs",
    "crates/train/src/router.rs",
    "crates/train/src/net.rs",
];

fn in_scope(path: &str, prefixes: &[&str]) -> bool {
    let p = path.replace('\\', "/");
    prefixes.iter().any(|pre| p.contains(pre))
}

/// Scan one file's source. `path` decides rule scoping and is echoed in
/// findings; it does not need to exist on disk (the self-test scans
/// fixture strings under synthetic paths).
pub fn scan_file(path: &str, source: &str) -> Vec<Finding> {
    let v = view(source);
    let mut findings = Vec::new();
    let norm = path.replace('\\', "/");

    // DL001 needs the set of bindings declared as HashMap/HashSet
    let hash_bindings = collect_hash_bindings(&v.stripped);

    for (i, line) in v.stripped.iter().enumerate() {
        if v.in_test[i] {
            continue;
        }
        let push = |findings: &mut Vec<Finding>, code: Code, message: String| {
            let end = (i + 4).min(v.raw.len());
            findings.push(Finding {
                code,
                path: norm.clone(),
                line: i + 1,
                message,
                raw: v.raw[i].clone(),
                context: v.raw[i..end].join("\n"),
            });
        };

        if in_scope(&norm, &DETERMINISM_CRATES) {
            if let Some(name) = hash_iteration(line, &hash_bindings) {
                push(
                    &mut findings,
                    Code::Dl001,
                    format!("iteration over hash-ordered `{name}`; use a BTreeMap/sorted keys"),
                );
            }
        }

        if !norm.contains("crates/bench/") && !norm.contains("/bin/") {
            for pat in ["Instant::now", "SystemTime::now", "thread_rng", "from_entropy"] {
                if find_token(line, pat) {
                    push(
                        &mut findings,
                        Code::Dl002,
                        format!("`{pat}` makes replay diverge; thread time/seed in from the caller"),
                    );
                }
            }
        }

        if in_scope(&norm, &HOT_PATH_CRATES)
            && (line.contains(".sum::<f32>()") || line.contains(".sum::<f64>()"))
        {
            push(
                &mut findings,
                Code::Dl003,
                "unordered float reduction; accumulate explicitly or document the ordering".into(),
            );
        }

        if in_scope(&norm, &HOT_PATH_CRATES)
            && line.contains("transpose_last2()")
            && line.contains("matmul")
        {
            push(
                &mut findings,
                Code::Dl007,
                "materialised transpose as a matmul operand; read it in place with `.view().t()`"
                    .into(),
            );
        }

        if in_scope(&norm, &KERNEL_CRATES) && !norm.ends_with(POOL_FILE) {
            for pat in ["thread::spawn", "thread::scope", "thread::Builder"] {
                if find_token(line, pat) {
                    push(
                        &mut findings,
                        Code::Dl008,
                        format!("`{pat}` starts a thread per call; use `dhg_tensor::parallel`"),
                    );
                }
            }
        }

        if find_token(line, "unsafe") {
            let lookback = i.saturating_sub(5);
            let documented = v.raw[lookback..=i]
                .iter()
                .any(|r| r.to_ascii_lowercase().contains("safety"));
            if !documented {
                push(
                    &mut findings,
                    Code::Dl004,
                    "`unsafe` without a `// SAFETY:` comment in the preceding 5 lines".into(),
                );
            }
        }

        if REQUEST_PATH_FILES.iter().any(|f| norm.ends_with(f)) {
            for pat in [
                ".unwrap()",
                ".expect(",
                "assert!(",
                "assert_eq!(",
                "assert_ne!(",
                "panic!(",
                "unreachable!(",
                "unimplemented!(",
            ] {
                if find_token(line, pat) {
                    push(
                        &mut findings,
                        Code::Dl005,
                        format!("`{pat}` on the serving request path; return a typed ServeError"),
                    );
                }
            }
        }
    }

    // DL006 is block-scoped: a loop that retries must back off somewhere
    // in its body, which no single line can prove.
    if REQUEST_PATH_FILES.iter().any(|f| norm.ends_with(f)) {
        for start in retry_loops_without_backoff(&v) {
            let end = (start + 4).min(v.raw.len());
            findings.push(Finding {
                code: Code::Dl006,
                path: norm.clone(),
                line: start + 1,
                message: "retry loop never backs off; busy-spinning a failing peer \
                          amplifies the outage"
                    .into(),
                raw: v.raw[start].clone(),
                context: v.raw[start..end].join("\n"),
            });
        }
    }
    findings
}

/// Identifier fragments that mark a loop as a *retry* loop.
const RETRY_MARKERS: [&str; 4] = ["retry", "retries", "reconnect", "resend"];
/// Calls that count as backing off between attempts.
const BACKOFF_MARKERS: [&str; 3] = ["backoff", "sleep", "wait_timeout"];

/// 0-based start lines of non-test loops whose body mentions a retry
/// marker but never a backoff call. Loop bodies are found by brace
/// matching over the stripped text, so string/comment contents cannot
/// fire or suppress the rule; a nested loop that backs off exempts its
/// enclosing loop (the schedule lives somewhere on every iteration
/// path we can see).
fn retry_loops_without_backoff(v: &FileView) -> Vec<usize> {
    let mut flagged = Vec::new();
    for (i, line) in v.stripped.iter().enumerate() {
        if v.in_test[i] {
            continue;
        }
        let is_loop = find_token(line, "loop") || find_token(line, "while") || {
            // `for` also introduces loops, but only as a statement head
            // (not `impl Trait for T {`)
            let t = line.trim_start();
            t.starts_with("for ") && !line.contains(" impl ") && !t.starts_with("impl")
        };
        if !is_loop || find_token(line, "impl") {
            continue;
        }
        // find the body: first `{` at or after the header, then every
        // character until its matching `}`
        let mut depth = 0usize;
        let mut opened = false;
        let mut body = String::new();
        'scan: for l in v.stripped.iter().skip(i) {
            for ch in l.chars() {
                match ch {
                    '{' => {
                        if opened {
                            body.push(ch);
                        }
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if opened && depth == 0 {
                            break 'scan;
                        }
                        body.push(ch);
                    }
                    _ if opened => body.push(ch),
                    _ => {}
                }
            }
            if opened {
                body.push('\n');
            } else if l.contains(';') {
                break; // statement ended with no block: not a loop body
            }
        }
        let lower = body.to_ascii_lowercase();
        let retries = RETRY_MARKERS.iter().any(|m| lower.contains(m));
        let backs_off = BACKOFF_MARKERS.iter().any(|m| lower.contains(m));
        if retries && !backs_off {
            flagged.push(i);
        }
    }
    flagged
}

/// Names bound (let or field) to a HashMap/HashSet anywhere in the file.
fn collect_hash_bindings(stripped: &[String]) -> Vec<String> {
    let mut names = Vec::new();
    for line in stripped {
        for ty in ["HashMap", "HashSet"] {
            let mut from = 0;
            while let Some(pos) = line[from..].find(ty) {
                let at = from + pos;
                from = at + ty.len();
                if prev_is_ident(line.as_bytes(), at) {
                    continue;
                }
                // `name: HashMap<..>` or `let name = HashMap::new()`
                let before = line[..at].trim_end();
                let anchor = if let Some(head) = before.strip_suffix(':') {
                    head
                } else if let Some(head) = before.strip_suffix('=') {
                    head
                } else {
                    continue;
                };
                let name: String = anchor
                    .trim_end()
                    .chars()
                    .rev()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect::<String>()
                    .chars()
                    .rev()
                    .collect();
                if !name.is_empty()
                    && !name.chars().next().is_some_and(|c| c.is_ascii_digit())
                    && !names.contains(&name)
                {
                    names.push(name);
                }
            }
        }
    }
    names
}

/// Does `line` iterate one of the tracked hash-ordered bindings?
fn hash_iteration(line: &str, bindings: &[String]) -> Option<String> {
    for name in bindings {
        for suffix in [".iter()", ".iter_mut()", ".into_iter()", ".keys()", ".values()", ".drain("]
        {
            let pat = format!("{name}{suffix}");
            if find_token(line, &pat) {
                return Some(name.clone());
            }
        }
        // `for x in map` / `for x in &map` / `for x in &mut map`
        if let Some(pos) = line.find(" in ") {
            let tail = line[pos + 4..].trim_start_matches(['&', ' ']).trim_start_matches("mut ");
            let tail = tail.strip_prefix("self.").unwrap_or(tail);
            let ident: String =
                tail.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
            if ident == *name && line.trim_start().starts_with("for ") {
                let rest = &tail[ident.len()..];
                // `for k in map.keys()` already matched above; bare
                // iteration is `for x in map {` / `for x in map`
                if rest.trim_start().is_empty() || rest.trim_start().starts_with('{') {
                    return Some(name.clone());
                }
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// allowlist
// ---------------------------------------------------------------------------

/// One `lint.allow` entry: `CODE path-suffix content-fragment # reason`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule this entry suppresses.
    pub code: Code,
    /// Path suffix the finding's file must end with.
    pub path_suffix: String,
    /// Substring of the raw offending line.
    pub fragment: String,
    /// Why this site is acceptable (everything after `#`).
    pub reason: String,
}

/// Parsed allowlist with per-entry usage tracking.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
    used: Vec<bool>,
}

impl Allowlist {
    /// Parse allowlist text. Malformed lines are returned as errors so a
    /// typo cannot silently allow nothing.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (spec, reason) = match line.split_once(" #") {
                Some((s, r)) => (s.trim(), r.trim().to_string()),
                None => (line, String::new()),
            };
            let mut parts = spec.splitn(3, char::is_whitespace);
            let code = parts
                .next()
                .and_then(Code::parse)
                .ok_or_else(|| format!("lint.allow:{}: bad rule code", ln + 1))?;
            let path_suffix = parts
                .next()
                .ok_or_else(|| format!("lint.allow:{}: missing path suffix", ln + 1))?
                .to_string();
            let fragment = parts.next().unwrap_or("").trim().to_string();
            entries.push(AllowEntry { code, path_suffix, fragment, reason });
        }
        let used = vec![false; entries.len()];
        Ok(Allowlist { entries, used })
    }

    /// Load from a file; a missing file is an empty allowlist.
    pub fn load(path: &Path) -> Result<Allowlist, String> {
        match fs::read_to_string(path) {
            Ok(text) => Allowlist::parse(&text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Allowlist::default()),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// Does an entry cover this finding? Marks the entry used.
    pub fn allows(&mut self, f: &Finding) -> bool {
        for (i, e) in self.entries.iter().enumerate() {
            if e.code == f.code
                && f.path.ends_with(&e.path_suffix)
                && (e.fragment.is_empty() || f.context.contains(&e.fragment))
            {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    /// Entries that matched no finding (stale suppressions).
    pub fn unused(&self) -> Vec<&AllowEntry> {
        self.entries.iter().zip(&self.used).filter(|(_, &u)| !u).map(|(e, _)| e).collect()
    }
}

// ---------------------------------------------------------------------------
// tree walk
// ---------------------------------------------------------------------------

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> =
        fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()?.into_iter().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan every `crates/**/src/**/*.rs` under `root` (sorted walk, so the
/// report order is deterministic). Returns the findings and the number
/// of files scanned.
pub fn scan_tree(root: &Path) -> io::Result<(Vec<Finding>, usize)> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    let mut crate_dirs: Vec<_> = fs::read_dir(&crates)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            walk(&src, &mut files)?;
        }
    }
    let mut findings = Vec::new();
    for file in &files {
        let rel = file.strip_prefix(root).unwrap_or(file).to_string_lossy().replace('\\', "/");
        let source = fs::read_to_string(file)?;
        findings.extend(scan_file(&rel, &source));
    }
    Ok((findings, files.len()))
}

/// The gate's verdict after the allowlist has filtered the findings: it
/// passes only if no finding is left and no allowlist entry is stale, so
/// a suppression whose code is gone cannot linger.
pub fn gate_passes(kept: &[Finding], allow: &Allowlist) -> bool {
    kept.is_empty() && allow.unused().is_empty()
}

/// Group findings per rule (for the summary footer).
pub fn counts_by_code(findings: &[Finding]) -> BTreeMap<&'static str, usize> {
    let mut m = BTreeMap::new();
    for f in findings {
        *m.entry(f.code.as_str()).or_insert(0) += 1;
    }
    m
}

// ---------------------------------------------------------------------------
// self-test: seeded negatives
// ---------------------------------------------------------------------------

/// Run the scanner against embedded fixtures with planted violations.
/// Every planted negative must be flagged with the expected code, and a
/// clean fixture must produce zero findings. Returns a description of
/// the first failure.
pub fn self_test() -> Result<(), String> {
    struct Case {
        name: &'static str,
        path: &'static str,
        source: &'static str,
        expect: &'static [(Code, usize)],
    }
    let cases = [
        Case {
            name: "hash iteration is flagged",
            path: "crates/core/src/fixture.rs",
            source: "use std::collections::HashMap;\nstruct S { scores: HashMap<u32, f32> }\nfn f(s: &S) {\n    let local = HashMap::new();\n    for (k, v) in s.scores.iter() { let _ = (k, v); }\n    for k in local.keys() { let _ = k; }\n}\n",
            expect: &[(Code::Dl001, 5), (Code::Dl001, 6)],
        },
        Case {
            name: "hash lookup alone is not iteration",
            path: "crates/core/src/fixture.rs",
            source: "use std::collections::HashMap;\nfn f(m: &HashMap<u32, f32>) -> Option<f32> {\n    m.get(&3).copied()\n}\n",
            expect: &[],
        },
        Case {
            name: "wall clock and entropy are flagged",
            path: "crates/train/src/fixture.rs",
            source: "use std::time::Instant;\nfn f() -> u64 {\n    let t = Instant::now();\n    let rng = thread_rng();\n    t.elapsed().as_micros() as u64\n}\n",
            expect: &[(Code::Dl002, 3), (Code::Dl002, 4)],
        },
        Case {
            name: "bench binaries may read the clock",
            path: "crates/bench/src/bin/fixture.rs",
            source: "fn f() { let _ = std::time::Instant::now(); }\n",
            expect: &[],
        },
        Case {
            name: "unordered float sum in a hot crate is flagged",
            path: "crates/hypergraph/src/fixture.rs",
            source: "fn f(xs: &[f32]) -> f32 {\n    xs.iter().copied().sum::<f32>()\n}\n",
            expect: &[(Code::Dl003, 2)],
        },
        Case {
            name: "a materialised transpose feeding a matmul is flagged",
            path: "crates/tensor/src/fixture.rs",
            source: "fn f(a: &NdArray, g: &NdArray) -> NdArray {\n    let t = a.transpose_last2();\n    g.matmul(&a.transpose_last2()).add(&t)\n}\nfn g(a: &NdArray, g: &NdArray) -> NdArray {\n    a.transpose_last2().matmul(g)\n}\n",
            expect: &[(Code::Dl007, 3), (Code::Dl007, 6)],
        },
        Case {
            name: "a transposed view is read in place",
            path: "crates/hypergraph/src/fixture.rs",
            source: "fn f(imp: &NdArray) -> NdArray {\n    imp.view().matmul(imp.view().t())\n}\n",
            expect: &[],
        },
        Case {
            name: "materialised transposes outside hot-path crates are not flagged",
            path: "crates/core/src/fixture.rs",
            source: "fn f(a: &NdArray, g: &NdArray) -> NdArray {\n    g.matmul(&a.transpose_last2())\n}\n",
            expect: &[],
        },
        Case {
            name: "per-call threads in a kernel crate are flagged",
            path: "crates/nn/src/fixture.rs",
            source: "fn f(xs: &mut [f32]) {\n    std::thread::scope(|s| {\n        s.spawn(|| xs.fill(0.0));\n    });\n    let h = thread::spawn(|| 1);\n    let b = std::thread::Builder::new();\n}\n",
            expect: &[(Code::Dl008, 2), (Code::Dl008, 5), (Code::Dl008, 6)],
        },
        Case {
            name: "the worker pool may start threads",
            path: "crates/tensor/src/parallel.rs",
            source: "fn spawn(i: usize) {\n    let _ = thread::Builder::new().name(format!(\"w{i}\")).spawn(|| {});\n}\n",
            expect: &[],
        },
        Case {
            name: "kernel-crate tests and service crates may start threads",
            path: "crates/core/src/fixture.rs",
            source: "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { std::thread::spawn(|| {}).join().ok(); }\n}\n",
            expect: &[],
        },
        Case {
            name: "service threads outside the kernel crates are not flagged",
            path: "crates/train/src/fixture.rs",
            source: "fn start() {\n    std::thread::spawn(|| {});\n}\n",
            expect: &[],
        },
        Case {
            name: "undocumented unsafe is flagged, documented is not",
            path: "crates/tensor/src/fixture.rs",
            source: "fn f(p: *const f32) -> f32 {\n    unsafe { *p }\n}\nfn g(p: *const f32) -> f32 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}\n",
            expect: &[(Code::Dl004, 2)],
        },
        Case {
            name: "request-path panics are flagged",
            path: "crates/train/src/serve.rs",
            source: "fn f(v: Option<u32>) -> u32 {\n    assert!(v.is_some(), \"must be set\");\n    v.unwrap()\n}\n",
            expect: &[(Code::Dl005, 2), (Code::Dl005, 3)],
        },
        Case {
            name: "test code and comments are exempt",
            path: "crates/train/src/serve.rs",
            source: "// calling .unwrap() here would be bad\nfn f() -> &'static str {\n    \"assert!(no) Instant::now()\"\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(3).unwrap(); }\n}\n",
            expect: &[],
        },
        Case {
            name: "debug_assert does not shadow assert",
            path: "crates/train/src/serve.rs",
            source: "fn f(x: usize) {\n    debug_assert!(x > 0);\n}\n",
            expect: &[],
        },
        Case {
            name: "retry loop without backoff is flagged",
            path: "crates/train/src/net.rs",
            source: "fn call(mut attempt: u32, max_retries: u32) -> bool {\n    loop {\n        if attempt >= max_retries { return false; }\n        attempt += 1;\n    }\n}\n",
            expect: &[(Code::Dl006, 2)],
        },
        Case {
            name: "retry loop with a backoff schedule is clean",
            path: "crates/train/src/net.rs",
            source: "fn call(mut attempt: u32, max_retries: u32) {\n    while attempt < max_retries {\n        std::thread::sleep(retry_backoff(attempt));\n        attempt += 1;\n    }\n}\n",
            expect: &[],
        },
        Case {
            name: "loops that never retry are not retry loops",
            path: "crates/train/src/net.rs",
            source: "fn pump(frames: &[u8]) {\n    for f in frames {\n        let _ = f;\n    }\n}\n",
            expect: &[],
        },
    ];
    for case in cases {
        let got = scan_file(case.path, case.source);
        let got_pairs: Vec<(Code, usize)> = got.iter().map(|f| (f.code, f.line)).collect();
        for want in case.expect {
            if !got_pairs.contains(want) {
                return Err(format!(
                    "self-test `{}`: expected {} at line {}, got {:?}",
                    case.name,
                    want.0,
                    want.1,
                    got_pairs
                ));
            }
        }
        for (code, line) in &got_pairs {
            if !case.expect.contains(&(*code, *line)) {
                return Err(format!(
                    "self-test `{}`: unexpected {} at line {}",
                    case.name, code, line
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_negatives_all_caught() {
        self_test().expect("self-test fixtures");
    }

    #[test]
    fn stripper_handles_raw_strings_and_nested_comments() {
        let mut st = StripState::default();
        let s = strip_line(&mut st, r##"let x = r#"unsafe Instant::now()"#; /* a /* b */"##);
        assert!(!s.contains("unsafe"));
        assert!(!s.contains("Instant"));
        // the nested comment is still open
        let s2 = strip_line(&mut st, "still comment */ after");
        assert!(!s2.contains("still"));
        assert!(s2.contains("after"));
    }

    #[test]
    fn allowlist_suppresses_and_tracks_usage() {
        let mut allow = Allowlist::parse(
            "DL003 crates/hypergraph/src/fixture.rs .sum::<f32>() # documented ordering\n\
             DL001 crates/core/src/stale.rs whatever # never matches\n",
        )
        .expect("parse");
        let fixture = "fn f(xs: &[f32]) -> f32 { xs.iter().copied().sum::<f32>() }\n";
        let findings = scan_file("crates/hypergraph/src/fixture.rs", fixture);
        assert_eq!(findings.len(), 1);
        let mut kept: Vec<&Finding> = Vec::new();
        for f in &findings {
            if !allow.allows(f) {
                kept.push(f);
            }
        }
        assert!(kept.is_empty(), "allowlisted finding must be suppressed");
        assert_eq!(allow.unused().len(), 1, "the stale entry must be reported");
    }

    #[test]
    fn gate_fails_on_a_stale_entry_or_an_unallowed_finding() {
        let fixture = "fn f(xs: &[f32]) -> f32 { xs.iter().copied().sum::<f32>() }\n";
        let findings = scan_file("crates/hypergraph/src/fixture.rs", fixture);
        let gate = |allow_text: &str| {
            let mut allow = Allowlist::parse(allow_text).expect("parse");
            let mut kept = Vec::new();
            for f in &findings {
                if !allow.allows(f) {
                    kept.push(f.clone());
                }
            }
            gate_passes(&kept, &allow)
        };
        let covering = "DL003 crates/hypergraph/src/fixture.rs .sum::<f32>() # ordered\n";
        assert!(gate(covering), "a covered finding and no stale entry must pass");
        let stale = format!("{covering}DL001 crates/core/src/stale.rs whatever # never matches\n");
        assert!(!gate(&stale), "a stale entry must fail the gate");
        assert!(!gate(""), "an unallowed finding must fail the gate");
    }

    #[test]
    fn malformed_allowlist_is_an_error() {
        assert!(Allowlist::parse("DL999 foo bar\n").is_err());
    }

    #[test]
    fn cfg_test_span_tracking_covers_nested_braces() {
        let source = "fn live() { Some(1).unwrap(); }\n\
                      #[cfg(test)]\n\
                      mod tests {\n\
                          fn helper() { if true { Some(1).unwrap(); } }\n\
                      }\n\
                      fn live_again() { Some(2).unwrap(); }\n";
        let findings = scan_file("crates/train/src/serve.rs", source);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![1, 6], "test module must be exempt, code after it must not");
    }
}
