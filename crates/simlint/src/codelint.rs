//! Level 1: semantic workspace lint (token rules + call-graph reachability).
//!
//! Enforces project rules that clippy cannot express:
//!
//! - `hash-collections`: no `HashMap`/`HashSet` in simulation-state code —
//!   iteration order feeds event scheduling, so BTree collections are
//!   required for deterministic, bit-identical runs.
//! - `wall-clock`: no `Instant`/`SystemTime` outside the parallel harness
//!   and bench code; simulation logic must consume virtual time only.
//! - `thread-spawn`: no `thread::spawn`/`thread::scope` outside the harness;
//!   all parallelism goes through the deterministic work queue.
//! - `hot-path-panic`: no `.unwrap()`, `.expect()` or slice indexing on the
//!   event path without an inline justification.
//! - `hot-path-alloc`: no heap allocation (`vec!`, `format!`, `Box::new`,
//!   `collect`, `to_string`, …) on the event path without justification.
//! - `time-arith`: no unchecked `+`/`-`/`*` on raw `as_ps()` picosecond
//!   `u64`s on the event path — ps values run against the timing wheel's
//!   2^49 ps horizon, so raw products overflow silently; stay in
//!   `SimTime`/`SimDuration`, widen to `u128`, or use checked/saturating ops.
//! - `forbid-unsafe`: every non-vendored crate root carries
//!   `#![forbid(unsafe_code)]`.
//! - `prof-leak`: no wall-clock profiler value (`prof::` paths, the
//!   engine's `.profiler` field) consumed by simulation-state code —
//!   declaring, storing and statement-position calls are fine, but a
//!   profiler value feeding an expression (`let x = self.profiler...`,
//!   `if self.profiler...`) needs a sanctioned-wiring justification.
//! - `bad-allow`: malformed or unknown `// simlint: allow(...)` directives.
//! - `stale-allow`: a well-formed directive that no longer suppresses any
//!   finding — dead annotations must be pruned, not accumulated.
//! - `spec-mismatch`: the Fig. 6 state machine diverges from the committed
//!   `fig6.spec` table (see [`crate::spec`]).
//!
//! The *hot path* is not a hand-maintained file list: it is every function
//! reachable in the call graph from the engine's dispatch loop
//! ([`HOT_ROOT`], `Simulator::drive`) — see [`crate::symbols`] and
//! [`crate::callgraph`]. `#[cfg(..)]`-gated code (the audit layer, test
//! modules) is by definition not on the unconditional event path and is
//! excluded.
//!
//! Suppression syntax (reason is mandatory):
//!
//! ```text
//! // simlint: allow(rule) -- reason
//! ```
//!
//! Placed at the end of a code line it covers that line; on its own line it
//! covers the next code line, or — when that line starts a `fn` item — the
//! whole function body, mirroring the scoping of Rust's `#[allow]`.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::callgraph;
use crate::lexer::{lex, Comment, TokKind, Token};
use crate::symbols::{self, matching_brace};

/// The call-graph reachability root: the engine's single event dispatch
/// loop (`Simulator::drive`), which every `run*` entry point funnels
/// through.
pub const HOT_ROOT: &str = "drive";

/// Lint rules, in stable report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    HashCollections,
    WallClock,
    ThreadSpawn,
    HotPathPanic,
    HotPathAlloc,
    TimeArith,
    ProfLeak,
    ForbidUnsafe,
    BadAllow,
    StaleAllow,
    SpecMismatch,
}

pub const ALL_RULES: [Rule; 11] = [
    Rule::HashCollections,
    Rule::WallClock,
    Rule::ThreadSpawn,
    Rule::HotPathPanic,
    Rule::HotPathAlloc,
    Rule::TimeArith,
    Rule::ProfLeak,
    Rule::ForbidUnsafe,
    Rule::BadAllow,
    Rule::StaleAllow,
    Rule::SpecMismatch,
];

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::HashCollections => "hash-collections",
            Rule::WallClock => "wall-clock",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::HotPathPanic => "hot-path-panic",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::TimeArith => "time-arith",
            Rule::ProfLeak => "prof-leak",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::BadAllow => "bad-allow",
            Rule::StaleAllow => "stale-allow",
            Rule::SpecMismatch => "spec-mismatch",
        }
    }

    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }
}

/// One structured finding, rendered as `file:line: rule: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub file: String,
    pub line: u32,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// How the lint treats a file, derived purely from its workspace-relative
/// path (always with `/` separators).
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// Vendored dependency stubs, lint fixtures, build output: not ours.
    pub skip: bool,
    /// Simulation-state code: BTree collections required.
    pub state_code: bool,
    /// May read wall-clock time (harness + bench).
    pub wall_clock_ok: bool,
    /// May spawn OS threads (harness only).
    pub threads_ok: bool,
    /// Crate root that must carry `#![forbid(unsafe_code)]`.
    pub crate_root: bool,
    /// Integration tests / binaries: linted, but their function definitions
    /// stay out of the call graph (they cannot be on the event path).
    pub test_code: bool,
}

const VENDORED_PREFIXES: [&str; 2] = ["crates/rand/", "crates/proptest/"];

/// Crates whose code holds or mutates simulation state.
const STATE_PREFIXES: [&str; 9] = [
    "crates/netsim/",
    "crates/flowctl/",
    "crates/cc/",
    "crates/core/",
    "crates/workloads/",
    "crates/stats/",
    "crates/obs/",
    "crates/simlint/",
    "src/",
];

impl FileClass {
    pub fn classify(relpath: &str) -> FileClass {
        let mut fc = FileClass::default();
        if VENDORED_PREFIXES.iter().any(|p| relpath.starts_with(p))
            || relpath.starts_with("target/")
            || relpath.contains("/fixtures/")
        {
            fc.skip = true;
            return fc;
        }
        fc.state_code =
            STATE_PREFIXES.iter().any(|p| relpath.starts_with(p)) || relpath.starts_with("tests/");
        // `crates/obs/src/prof.rs` is the engine's sanctioned wall-clock
        // window: the self-profiler only *reads* `Instant`, and the
        // `prof-leak` rule polices that none of its values reach
        // simulation state.
        fc.wall_clock_ok = relpath == "src/harness.rs"
            || relpath == "crates/obs/src/prof.rs"
            || relpath.starts_with("crates/bench/");
        fc.threads_ok = relpath == "src/harness.rs";
        fc.crate_root = relpath == "src/lib.rs"
            || (relpath.starts_with("crates/")
                && relpath.ends_with("/src/lib.rs")
                && relpath.matches('/').count() == 3);
        fc.test_code = relpath.starts_with("tests/")
            || relpath.contains("/tests/")
            || relpath.starts_with("src/bin/");
        fc
    }
}

/// A parsed `// simlint: allow(rule, ...) -- reason` directive, with a
/// suppression-hit counter driving the `stale-allow` rule.
struct AllowDirective {
    rules: Vec<Rule>,
    /// The directive's own source line (for stale-allow reporting).
    line: u32,
    /// Inclusive 1-based line range this directive suppresses.
    from_line: u32,
    to_line: u32,
    /// Findings this directive suppressed during the scan.
    hits: u32,
}

/// Keywords that may legitimately be followed by `[` starting an array
/// expression rather than an indexing operation.
const INDEX_EXEMPT_KEYWORDS: [&str; 12] = [
    "let", "mut", "in", "if", "else", "match", "return", "as", "ref", "move", "break", "while",
];

/// Types whose `::new`/`::with_capacity`/`::from` constructors allocate.
const ALLOC_TYPES: [&str; 7] = [
    "Box", "Vec", "VecDeque", "String", "BTreeMap", "BTreeSet", "Rc",
];
const ALLOC_CTORS: [&str; 3] = ["new", "with_capacity", "from"];
/// Methods that allocate their result.
const ALLOC_METHODS: [&str; 4] = ["to_vec", "to_owned", "to_string", "collect"];
/// Macros that allocate.
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// Suppress a finding if a directive covers it, counting the hit.
fn try_allow(allows: &mut [AllowDirective], rule: Rule, line: u32) -> bool {
    for a in allows.iter_mut() {
        if a.rules.contains(&rule) && line >= a.from_line && line <= a.to_line {
            a.hits += 1;
            return true;
        }
    }
    false
}

/// Lint a set of sources as one workspace: build the symbol table over the
/// non-test simulation-state files, derive the hot set by reachability
/// from [`HOT_ROOT`], then run every token rule per file. Each element is
/// `(workspace-relative path, source text)`. This is the unit both
/// [`lint_workspace`] and the fixture tests drive.
pub fn lint_sources(files: &[(String, String)]) -> Vec<Diagnostic> {
    let mut defs = Vec::new();
    for (rel, src) in files {
        let fc = FileClass::classify(rel);
        if fc.skip || !fc.state_code || fc.test_code {
            continue;
        }
        defs.extend(symbols::extract(rel, src));
    }
    let hot = callgraph::hot_ranges(&defs, HOT_ROOT);
    let mut diags = Vec::new();
    for (rel, src) in files {
        let ranges = hot.get(rel.as_str()).map(Vec::as_slice).unwrap_or(&[]);
        diags.extend(lint_one(rel, src, ranges));
    }
    diags.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(&b.rule))
    });
    diags
}

/// Lint a single file in isolation (no cross-file call graph: the hot set
/// is whatever is reachable from a [`HOT_ROOT`] defined in this file).
pub fn lint_file(relpath: &str, src: &str) -> Vec<Diagnostic> {
    lint_sources(&[(relpath.to_string(), src.to_string())])
}

/// The per-file token scan. `hot_ranges` are the line spans of the
/// event-path-reachable functions in this file.
fn lint_one(relpath: &str, src: &str, hot_ranges: &[(u32, u32)]) -> Vec<Diagnostic> {
    let fc = FileClass::classify(relpath);
    if fc.skip {
        return Vec::new();
    }
    let lexed = lex(src);
    let mut diags = Vec::new();
    let (mut allows, mut bad_allow_diags) =
        parse_allow_directives(relpath, &lexed.comments, &lexed.tokens);
    diags.append(&mut bad_allow_diags);

    let hot = |line: u32| hot_ranges.iter().any(|&(a, b)| line >= a && line <= b);
    macro_rules! push {
        ($rule:expr, $line:expr, $msg:expr) => {
            if !try_allow(&mut allows, $rule, $line) {
                diags.push(Diagnostic {
                    file: relpath.to_string(),
                    line: $line,
                    rule: $rule,
                    message: $msg,
                });
            }
        };
    }

    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if fc.state_code && (t.is_ident("HashMap") || t.is_ident("HashSet")) {
            push!(
                Rule::HashCollections,
                t.line,
                format!(
                    "`{}` has nondeterministic iteration order; simulation-state code must \
                     use `BTree{}` so runs stay bit-identical",
                    t.text,
                    &t.text[4..]
                )
            );
        }
        if !fc.wall_clock_ok && (t.is_ident("Instant") || t.is_ident("SystemTime")) {
            push!(
                Rule::WallClock,
                t.line,
                format!(
                    "`{}` reads the wall clock; simulation logic must only consume virtual \
                     `SimTime` (wall-clock access is confined to src/harness.rs and bench code)",
                    t.text
                )
            );
        }
        if !fc.threads_ok
            && t.is_ident("thread")
            && matches!(toks.get(i + 1), Some(t1) if t1.is_punct(':'))
            && matches!(toks.get(i + 2), Some(t2) if t2.is_punct(':'))
            && matches!(toks.get(i + 3),
                Some(t3) if t3.is_ident("spawn") || t3.is_ident("scope") || t3.is_ident("Builder"))
        {
            push!(
                Rule::ThreadSpawn,
                t.line,
                "OS threads outside src/harness.rs break deterministic scheduling; route \
                 parallelism through the harness work queue"
                    .to_string()
            );
        }
        // --- prof-leak -----------------------------------------------
        // Simulation-state code may *hold* the wall-clock profiler and
        // call it in statement position, but a profiler value feeding an
        // expression is a wall-clock leak into simulation state.
        if fc.state_code
            && !fc.test_code
            && !fc.wall_clock_ok
            && !relpath.starts_with("crates/obs/")
            && t.kind == TokKind::Ident
            && (t.text == "prof" || t.text == "profiler")
        {
            let field_access = i > 0 && toks[i - 1].is_punct('.');
            let path_seg = matches!(toks.get(i + 1), Some(c) if c.is_punct(':'))
                && matches!(toks.get(i + 2), Some(c) if c.is_punct(':'));
            // `prof::Uppercase` is a type path (`prof::ProfConfig`,
            // `prof::NodeClass`): naming a profiler *type* carries no
            // wall-clock data, only `.profiler`/`.prof` field reads and
            // lowercase value paths do.
            let type_path = path_seg
                && matches!(toks.get(i + 3), Some(n) if n.kind == TokKind::Ident
                    && n.text.starts_with(|c: char| c.is_ascii_uppercase()));
            if (field_access || (path_seg && !type_path)) && prof_value_consumed(toks, i) {
                push!(
                    Rule::ProfLeak,
                    t.line,
                    "a wall-clock profiler value feeds simulation-state code; the \
                     self-profiler must stay read-only — declare, store or call it in \
                     statement position, and justify sanctioned engine wiring with \
                     `// simlint: allow(prof-leak) -- <why no wall-clock value crosses>`"
                        .to_string()
                );
            }
        }
        if hot(t.line) {
            // --- hot-path-panic ----------------------------------------
            if (t.is_ident("unwrap") || t.is_ident("expect")) && i > 0 && toks[i - 1].is_punct('.')
            {
                push!(
                    Rule::HotPathPanic,
                    t.line,
                    format!(
                        "`.{}()` can panic in an event-path-reachable function; handle the \
                         case or add `// simlint: allow(hot-path-panic) -- <why it cannot fail>`",
                        t.text
                    )
                );
            }
            if t.is_punct('[') && i > 0 && is_index_base(&toks[i - 1]) {
                push!(
                    Rule::HotPathPanic,
                    t.line,
                    "slice indexing can panic in an event-path-reachable function; use \
                     `get()` or add `// simlint: allow(hot-path-panic) -- <why the index is \
                     in bounds>`"
                        .to_string()
                );
            }
            // --- hot-path-alloc ----------------------------------------
            if t.kind == TokKind::Ident
                && ALLOC_MACROS.contains(&t.text.as_str())
                && matches!(toks.get(i + 1), Some(n) if n.is_punct('!'))
            {
                push!(
                    Rule::HotPathAlloc,
                    t.line,
                    format!(
                        "`{}!` allocates on the event path; preallocate outside the loop or \
                         add `// simlint: allow(hot-path-alloc) -- <why the allocation is \
                         unavoidable or off the steady-state path>`",
                        t.text
                    )
                );
            }
            if t.kind == TokKind::Ident && ALLOC_TYPES.contains(&t.text.as_str()) {
                if let Some(ctor) = alloc_ctor_after(toks, i) {
                    push!(
                        Rule::HotPathAlloc,
                        t.line,
                        format!(
                            "`{}::{ctor}` allocates on the event path; preallocate and \
                             reuse, or justify with `// simlint: allow(hot-path-alloc) -- \
                             <reason>`",
                            t.text
                        )
                    );
                }
            }
            if t.kind == TokKind::Ident
                && ALLOC_METHODS.contains(&t.text.as_str())
                && i > 0
                && toks[i - 1].is_punct('.')
                && matches!(toks.get(i + 1), Some(n) if n.is_punct('(') || n.is_punct(':'))
            {
                push!(
                    Rule::HotPathAlloc,
                    t.line,
                    format!(
                        "`.{}()` allocates on the event path; preallocate and reuse, or \
                         justify with `// simlint: allow(hot-path-alloc) -- <reason>`",
                        t.text
                    )
                );
            }
            // --- time-arith --------------------------------------------
            if t.is_ident("as_ps")
                && matches!(toks.get(i + 1), Some(a) if a.is_punct('('))
                && matches!(toks.get(i + 2), Some(b) if b.is_punct(')'))
            {
                let next_op = matches!(toks.get(i + 3),
                    Some(n) if n.is_punct('+') || n.is_punct('-') || n.is_punct('*'));
                let prev_op = i >= 3
                    && toks[i - 1].is_punct('.')
                    && is_index_base(&toks[i - 2])
                    && (toks[i - 3].is_punct('+')
                        || toks[i - 3].is_punct('-')
                        || toks[i - 3].is_punct('*'));
                if next_op || prev_op {
                    push!(
                        Rule::TimeArith,
                        t.line,
                        "unchecked arithmetic on a raw `as_ps()` u64: picosecond values run \
                         against the wheel's 2^49 ps horizon, so sums/products can overflow \
                         silently — stay in SimTime/SimDuration, widen to u128, use \
                         checked/saturating ops, or justify with `// simlint: \
                         allow(time-arith) -- <why it cannot overflow>`"
                            .to_string()
                    );
                }
            }
        }
    }

    if fc.crate_root && !has_forbid_unsafe(toks) && !try_allow(&mut allows, Rule::ForbidUnsafe, 1) {
        // Suppression check uses line 1 (the attribute belongs at the top).
        diags.push(Diagnostic {
            file: relpath.to_string(),
            line: 1,
            rule: Rule::ForbidUnsafe,
            message: "crate root is missing `#![forbid(unsafe_code)]`; every non-vendored \
                      crate in this workspace must forbid unsafe code"
                .to_string(),
        });
    }

    // A directive that suppressed nothing is dead weight — and, worse,
    // suggests protection that does not exist. Prune it.
    for a in &allows {
        if a.hits == 0 {
            diags.push(Diagnostic {
                file: relpath.to_string(),
                line: a.line,
                rule: Rule::StaleAllow,
                message: format!(
                    "stale `allow({})`: it no longer suppresses any finding in its scope \
                     (lines {}..={}); delete the directive",
                    a.rules
                        .iter()
                        .map(|r| r.name())
                        .collect::<Vec<_>>()
                        .join(", "),
                    a.from_line,
                    a.to_line
                ),
            });
        }
    }

    diags.sort_by_key(|d| (d.line, d.rule));
    diags
}

/// If the tokens after an allocating type name at `i` spell
/// `::new(`/`::with_capacity(`/`::from(` — optionally through a turbofish
/// (`Vec::<u8>::new(`) — return the constructor name.
fn alloc_ctor_after(toks: &[Token], i: usize) -> Option<&str> {
    let mut j = i + 1;
    if !(toks.get(j)?.is_punct(':') && toks.get(j + 1)?.is_punct(':')) {
        return None;
    }
    j += 2;
    if toks.get(j)?.is_punct('<') {
        let mut depth = 0i64;
        while j < toks.len() {
            if toks[j].is_punct('<') {
                depth += 1;
            } else if toks[j].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        j += 1;
        if !(toks.get(j)?.is_punct(':') && toks.get(j + 1)?.is_punct(':')) {
            return None;
        }
        j += 2;
    }
    let c = toks.get(j)?;
    if c.kind == TokKind::Ident
        && ALLOC_CTORS.contains(&c.text.as_str())
        && toks.get(j + 1)?.is_punct('(')
    {
        Some(&c.text)
    } else {
        None
    }
}

/// True if a `[` directly after this token is an indexing operation.
fn is_index_base(prev: &Token) -> bool {
    match prev.kind {
        TokKind::Ident => !INDEX_EXEMPT_KEYWORDS.contains(&prev.text.as_str()),
        TokKind::Punct(')') | TokKind::Punct(']') => true,
        _ => false,
    }
}

/// Whether the `prof`/`profiler` reference at token `i` is *consumed* by
/// surrounding code, as opposed to declared, stored or called in statement
/// position. Walks left over `a.b` / `a::b` chains to the expression head
/// and inspects the token before it: statement boundaries (`;`, `{`, `}`),
/// type/field positions (a single `:`), generics (`<`, `>`) and item
/// declarations (`use`/`pub`/`mod`) don't consume; anything else — `=`,
/// `(`, `,`, `if`, `while`, `return`, operators — feeds the value onward.
fn prof_value_consumed(toks: &[Token], i: usize) -> bool {
    let mut h = i;
    loop {
        if h >= 2 && toks[h - 1].is_punct('.') && toks[h - 2].kind == TokKind::Ident {
            h -= 2;
        } else if h >= 3
            && toks[h - 1].is_punct(':')
            && toks[h - 2].is_punct(':')
            && toks[h - 3].kind == TokKind::Ident
        {
            h -= 3;
        } else {
            break;
        }
    }
    if h == 0 {
        return false; // head starts the file: an item declaration
    }
    let prev = &toks[h - 1];
    if prev.is_punct(';')
        || prev.is_punct('{')
        || prev.is_punct('}')
        || prev.is_punct('<')
        || prev.is_punct('>')
    {
        return false;
    }
    if prev.is_punct(':') {
        // a lone `:` is a type annotation or struct-field position; a
        // second `:` before it would have been folded into the chain walk
        return h >= 2 && toks[h - 2].is_punct(':');
    }
    if prev.kind == TokKind::Ident {
        return !matches!(prev.text.as_str(), "use" | "pub" | "mod");
    }
    true
}

fn has_forbid_unsafe(toks: &[Token]) -> bool {
    toks.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    })
}

/// Parse every `simlint:` comment into a scoped directive, emitting
/// `bad-allow` diagnostics for malformed ones.
fn parse_allow_directives(
    relpath: &str,
    comments: &[Comment],
    toks: &[Token],
) -> (Vec<AllowDirective>, Vec<Diagnostic>) {
    let mut allows = Vec::new();
    let mut diags = Vec::new();
    for c in comments {
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("simlint:") else {
            continue;
        };
        let mut bad = |msg: String| {
            diags.push(Diagnostic {
                file: relpath.to_string(),
                line: c.line,
                rule: Rule::BadAllow,
                message: msg,
            });
        };
        let rest = rest.trim();
        let Some(rest) = rest.strip_prefix("allow(") else {
            bad(format!(
                "unrecognized simlint directive `{text}`; expected \
                 `simlint: allow(rule) -- reason`"
            ));
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad("unterminated rule list in allow directive".to_string());
            continue;
        };
        let mut rules = Vec::new();
        let mut unknown = false;
        for name in rest[..close].split(',') {
            let name = name.trim();
            match Rule::from_name(name) {
                Some(r) => rules.push(r),
                None => {
                    bad(format!(
                        "unknown rule `{name}` in allow directive (known rules: {})",
                        ALL_RULES.map(Rule::name).join(", ")
                    ));
                    unknown = true;
                }
            }
        }
        if unknown {
            continue;
        }
        let after = rest[close + 1..].trim();
        let reason_ok = after
            .strip_prefix("--")
            .is_some_and(|r| !r.trim().is_empty());
        if !reason_ok {
            bad("allow directive is missing a justification; write \
                 `simlint: allow(rule) -- reason`"
                .to_string());
            continue;
        }
        let (from_line, to_line) = directive_span(c.line, toks);
        allows.push(AllowDirective {
            rules,
            line: c.line,
            from_line,
            to_line,
            hits: 0,
        });
    }
    (allows, diags)
}

/// Resolve the lines a directive at `line` suppresses: its own line when it
/// trails code; otherwise the next code line, widened to the full function
/// body when that line starts a `fn` item.
fn directive_span(line: u32, toks: &[Token]) -> (u32, u32) {
    if toks.iter().any(|t| t.line == line) {
        return (line, line);
    }
    let Some(first) = toks.iter().position(|t| t.line > line) else {
        return (line, line);
    };
    let next_line = toks[first].line;
    // Does the item starting here begin a function? Scan past attributes
    // (`#[inline]`, …) and visibility/qualifier noise (`pub`, `pub(crate)`,
    // `const`, `async`, `unsafe`, `extern "C"`) looking for `fn`.
    let mut j = first;
    let mut guard = 0;
    while j < toks.len() && guard < 64 {
        guard += 1;
        let t = &toks[j];
        if t.is_punct('#') && toks.get(j + 1).is_some_and(|t1| t1.is_punct('[')) {
            // Skip the whole attribute group (brackets may nest).
            let mut depth = 0i64;
            let mut k = j + 1;
            while k < toks.len() {
                if toks[k].is_punct('[') {
                    depth += 1;
                } else if toks[k].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k += 1;
            }
            j = k + 1;
            continue;
        }
        if t.is_ident("fn") {
            let mut k = j + 1;
            while k < toks.len() && !toks[k].is_punct('{') {
                k += 1;
            }
            if let Some(end) = matching_brace(toks, k) {
                return (next_line, toks[end].line);
            }
            break;
        }
        let qualifier = matches!(&t.kind, TokKind::Ident if
                ["pub", "const", "async", "unsafe", "extern", "crate", "in", "self", "super"]
                    .contains(&t.text.as_str()))
            || t.is_punct('(')
            || t.is_punct(')')
            || t.kind == TokKind::Literal;
        if !qualifier {
            break;
        }
        j += 1;
    }
    (next_line, next_line)
}

/// Recursively collect the workspace's lintable `.rs` files as
/// `(relpath, absolute path)`, sorted by relpath for stable output.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<Result<_, _>>()?;
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if name == "target" || name == ".git" || name == "fixtures" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push((rel, path));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lint the whole workspace rooted at `root`: the semantic code lint over
/// every non-skipped file plus the Fig. 6 spec-conformance pass against
/// the committed table. Returns the diagnostics plus the number of files
/// scanned.
pub fn lint_workspace(root: &Path) -> std::io::Result<(Vec<Diagnostic>, usize)> {
    lint_workspace_with_table(root, None)
}

/// [`lint_workspace`] with the Fig. 6 table read from `table_override`
/// instead of the committed [`crate::spec::SPEC_TABLE_PATH`] — the hook CI
/// uses to prove a seeded spec mutation is caught end to end.
pub fn lint_workspace_with_table(
    root: &Path,
    table_override: Option<&Path>,
) -> std::io::Result<(Vec<Diagnostic>, usize)> {
    let mut srcs = Vec::new();
    for (rel, path) in workspace_files(root)? {
        if FileClass::classify(&rel).skip {
            continue;
        }
        srcs.push((rel, std::fs::read_to_string(&path)?));
    }
    let scanned = srcs.len();
    let mut diags = lint_sources(&srcs);

    let table_path = table_override
        .map(Path::to_path_buf)
        .unwrap_or_else(|| root.join(crate::spec::SPEC_TABLE_PATH));
    match std::fs::read_to_string(&table_path) {
        Ok(table) => diags.extend(crate::spec::check_workspace(&table, &srcs)),
        Err(e) => diags.push(Diagnostic {
            file: crate::spec::SPEC_TABLE_PATH.to_string(),
            line: 1,
            rule: Rule::SpecMismatch,
            message: format!(
                "cannot read the committed Fig. 6 spec table ({e}); the state machine \
                 is unpinned"
            ),
        }),
    }
    diags.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(&b.rule))
    });
    Ok((diags, scanned))
}

/// The workspace's hot-function set: every function reachable from the
/// [`HOT_ROOT`] dispatch loop, as `(file, name, line)` — the reachability
/// evidence behind the hot-path rules, exported so `tcdsim lint --json`
/// can show *why* a site counts as hot.
pub fn workspace_hot_functions(root: &Path) -> std::io::Result<Vec<(String, String, u32)>> {
    let mut defs = Vec::new();
    for (rel, path) in workspace_files(root)? {
        let fc = FileClass::classify(&rel);
        if fc.skip || !fc.state_code || fc.test_code {
            continue;
        }
        let src = std::fs::read_to_string(&path)?;
        defs.extend(symbols::extract(&rel, &src));
    }
    Ok(callgraph::hot_functions(&defs, HOT_ROOT))
}

/// Walk up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]` — the root the relative rule paths are defined against.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_matches_layout() {
        assert!(FileClass::classify("crates/rand/src/lib.rs").skip);
        assert!(FileClass::classify("crates/simlint/tests/fixtures/bad.rs").skip);
        assert!(FileClass::classify("crates/netsim/src/routing.rs").state_code);
        assert!(FileClass::classify("crates/obs/src/metrics.rs").state_code);
        assert!(!FileClass::classify("crates/bench/src/lib.rs").state_code);
        assert!(FileClass::classify("crates/bench/src/lib.rs").wall_clock_ok);
        assert!(FileClass::classify("src/harness.rs").threads_ok);
        assert!(!FileClass::classify("crates/netsim/src/sim.rs").threads_ok);
        assert!(FileClass::classify("src/lib.rs").crate_root);
        assert!(FileClass::classify("crates/netsim/src/lib.rs").crate_root);
        assert!(!FileClass::classify("crates/netsim/src/routing.rs").crate_root);
        assert!(!FileClass::classify("crates/netsim/tests/src/lib.rs").crate_root);
        assert!(FileClass::classify("tests/static_analysis.rs").test_code);
        assert!(FileClass::classify("crates/netsim/tests/fault_order.rs").test_code);
        assert!(!FileClass::classify("crates/netsim/src/sim.rs").test_code);
    }

    #[test]
    fn thread_spawn_carve_out_is_exactly_the_harness() {
        // The sweep harness is the one file allowed to touch threads; the
        // identical source anywhere in the engine is flagged.
        let src = "#![forbid(unsafe_code)]\n\
                   fn run_epoch() {\n\
                       std::thread::scope(|s| { s.spawn(|| {}); });\n\
                   }\n";
        assert!(
            lint_file("src/harness.rs", src).is_empty(),
            "harness worker threads are sanctioned"
        );
        for engine_file in ["crates/netsim/src/par.rs", "crates/netsim/src/event.rs"] {
            let diags = lint_file(engine_file, src);
            assert!(
                diags.iter().any(|d| d.rule == Rule::ThreadSpawn),
                "thread::scope in {engine_file} must be flagged: {diags:?}"
            );
        }
    }

    /// A two-function fixture: `drive` reaches `step`, `cold` is unreachable.
    fn reach_src(body_hot: &str, body_cold: &str) -> String {
        format!(
            "#![forbid(unsafe_code)]\n\
             fn drive(v: &[u32]) {{ step(v); }}\n\
             fn step(v: &[u32]) {{\n{body_hot}\n}}\n\
             fn cold(v: &[u32]) {{\n{body_cold}\n}}\n"
        )
    }

    #[test]
    fn hot_rules_follow_reachability_not_file_names() {
        // The same panicky body: flagged in the reachable fn, not the cold
        // one — in a file that was never on the old hand-maintained list.
        let src = reach_src("let _ = v[0];", "let _ = v[0];");
        let diags = lint_file("crates/netsim/src/host.rs", &src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::HotPathPanic);
        assert_eq!(diags[0].line, 4, "only the reachable copy: {diags:?}");
    }

    #[test]
    fn fn_scope_allow_covers_whole_body() {
        let src = "#![forbid(unsafe_code)]\n\
                   fn drive(v: &[u32]) { f(v, 0); g(v); }\n\
                   // simlint: allow(hot-path-panic) -- ports are fixed at build\n\
                   fn f(v: &[u32], i: usize) -> u32 {\n\
                       let a = v[i];\n\
                       v[a as usize]\n\
                   }\n\
                   fn g(v: &[u32]) -> u32 { v[0] }\n";
        let diags = lint_file("crates/netsim/src/event.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 8);
        assert_eq!(diags[0].rule, Rule::HotPathPanic);
    }

    #[test]
    fn trailing_allow_covers_its_line_only() {
        let src = "#![forbid(unsafe_code)]\n\
                   fn drive(v: &[u32]) { f(v); }\n\
                   fn f(v: &[u32]) -> u32 {\n\
                       let a = v[0]; // simlint: allow(hot-path-panic) -- checked above\n\
                       v[1]\n\
                   }\n";
        let diags = lint_file("crates/netsim/src/event.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 5);
    }

    #[test]
    fn allow_without_reason_is_reported() {
        let src = "#![forbid(unsafe_code)]\n// simlint: allow(hot-path-panic)\nfn f() {}\n";
        let diags = lint_file("crates/netsim/src/event.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::BadAllow);
    }

    #[test]
    fn stale_allow_is_reported_and_live_allow_is_not() {
        let src = "#![forbid(unsafe_code)]\n\
                   fn drive(v: &[u32]) { live(v); dead(v); }\n\
                   // simlint: allow(hot-path-panic) -- index bounded by caller\n\
                   fn live(v: &[u32]) -> u32 { v[0] }\n\
                   // simlint: allow(hot-path-panic) -- nothing panics here anymore\n\
                   fn dead(v: &[u32]) -> u32 { v.first().copied().unwrap_or(0) }\n";
        let diags = lint_file("crates/netsim/src/event.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::StaleAllow);
        assert_eq!(diags[0].line, 5);
    }

    #[test]
    fn cfg_test_mod_is_exempt_from_hot_rules_only() {
        let src = "#![forbid(unsafe_code)]\n\
                   fn drive() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       use std::collections::HashMap;\n\
                       #[test]\n\
                       fn t() { let v = vec![1]; assert_eq!(v.first().unwrap(), &1); }\n\
                   }\n";
        let diags = lint_file("crates/netsim/src/event.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::HashCollections);
    }

    #[test]
    fn vec_macro_is_not_indexing() {
        let src = "#![forbid(unsafe_code)]\nfn f() -> Vec<u32> { vec![0; 4] }\n";
        assert!(lint_file("crates/netsim/src/event.rs", src).is_empty());
    }

    #[test]
    fn allocation_in_hot_fn_is_flagged() {
        let src = reach_src(
            "let a = vec![0u8; 4]; let b = format!(\"x\"); let c = Vec::<u8>::new(); \
             let d = v.to_vec(); drop((a, b, c, d));",
            "let _ = vec![0u8; 4];",
        );
        let diags = lint_file("crates/netsim/src/host.rs", &src);
        assert_eq!(diags.len(), 4, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == Rule::HotPathAlloc));
    }

    #[test]
    fn raw_ps_arithmetic_in_hot_fn_is_flagged() {
        let src = "#![forbid(unsafe_code)]\n\
                   fn drive(t: T) { step(t); }\n\
                   fn step(t: T) -> u64 {\n\
                       let a = t.as_ps() + 1;\n\
                       let b = 2 + t.as_ps();\n\
                       let ok = t.as_ps() / 2;\n\
                       let widened = (t.as_ps() as u128) * 3;\n\
                       a + b + ok + widened as u64\n\
                   }\n";
        let diags = lint_file("crates/flowctl/src/time.rs", src);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == Rule::TimeArith));
        assert_eq!(diags[0].line, 4);
        assert_eq!(diags[1].line, 5);
    }
}
