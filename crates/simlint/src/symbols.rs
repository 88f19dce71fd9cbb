//! Symbol table: every function definition in the workspace, with its
//! impl-block owner, body span and outgoing calls — extracted from the
//! lexer's token stream, no full parser required.
//!
//! The table deliberately over-approximates: a call site records only the
//! callee *name* (plus a one-segment `Type::` qualifier when present), and
//! [`crate::callgraph`] resolves it against every workspace definition
//! with that name. Over-approximation is the safe direction for the lint:
//! it can only classify *more* functions as event-path-reachable, never
//! fewer.
//!
//! Conditionally compiled code is excluded from the event path: a function
//! (or enclosing `impl`/`mod`) behind `#[cfg(test)]` or
//! `#[cfg(feature = ...)]` is by definition not unconditionally on the
//! per-event dispatch path, so reachability neither starts from nor
//! traverses through it (the audit layer is the motivating case).

use crate::lexer::{lex, TokKind, Token};

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallRef {
    /// The called name (`foo` in `foo(..)`, `bar` in `x.bar(..)` and
    /// `Type::bar(..)`).
    pub name: String,
    /// The path segment immediately before `::name(`, when present —
    /// usually the impl type, sometimes a module.
    pub qualifier: Option<String>,
}

/// One function definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// The surrounding `impl`/`trait` self-type name, when any.
    pub owner: Option<String>,
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// Inclusive 1-based line span, from the `fn` keyword to the body's
    /// closing brace.
    pub from_line: u32,
    pub to_line: u32,
    /// Behind `#[cfg(test)]` / `#[cfg(feature = ...)]` (directly or via an
    /// enclosing item): never part of the unconditional event path.
    pub cfg_gated: bool,
    /// Every call site in the body.
    pub calls: Vec<CallRef>,
}

/// Given the index of a `{` token, return the index of its matching `}`.
pub fn matching_brace(toks: &[Token], open: usize) -> Option<usize> {
    if open >= toks.len() || !toks[open].is_punct('{') {
        return None;
    }
    let mut depth = 0i64;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Item keywords that consume a pending attribute without being callable.
/// (`const` is absent: it may qualify `const fn`.)
const ITEM_KEYWORDS: [&str; 7] = [
    "struct",
    "enum",
    "union",
    "type",
    "use",
    "static",
    "macro_rules",
];

/// Identifiers that look like calls but are control flow or constructors
/// of `core` types no workspace fn shadows.
const CALL_KEYWORDS: [&str; 9] = [
    "if", "while", "match", "for", "return", "loop", "fn", "move", "unsafe",
];

/// Noise tokens allowed between an attribute and the item it gates.
fn is_item_qualifier(t: &Token) -> bool {
    matches!(&t.kind, TokKind::Ident if
        ["pub", "crate", "in", "self", "super", "async", "extern", "default", "const"]
            .contains(&t.text.as_str()))
        || t.is_punct('(')
        || t.is_punct(')')
        || t.kind == TokKind::Literal
}

/// Extract every function definition from `src` (workspace-relative path
/// `relpath` is recorded on each definition).
pub fn extract(relpath: &str, src: &str) -> Vec<FnDef> {
    let lexed = lex(src);
    let toks = &lexed.tokens[..];
    let mut defs = Vec::new();
    // Enclosing blocks that change context: (end token index, owner, gated).
    let mut regions: Vec<(usize, Option<String>, bool)> = Vec::new();
    // Attribute gating seen since the last item keyword.
    let mut pending_gate = false;
    let mut i = 0usize;
    while i < toks.len() {
        while let Some(&(end, _, _)) = regions.last() {
            if i > end {
                regions.pop();
            } else {
                break;
            }
        }
        let inherited_gate = regions.last().is_some_and(|r| r.2);
        let t = &toks[i];

        // Attribute group: note conditional-compilation gates, skip it.
        if t.is_punct('#') && toks.get(i + 1).is_some_and(|t1| t1.is_punct('[')) {
            let mut depth = 0i64;
            let mut k = i + 1;
            let mut saw_cfg = false;
            let mut saw_cond = false;
            let mut saw_not = false;
            while k < toks.len() {
                let tk = &toks[k];
                if tk.is_punct('[') {
                    depth += 1;
                } else if tk.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                saw_cfg |= tk.is_ident("cfg");
                saw_cond |= tk.is_ident("test") || tk.is_ident("feature");
                saw_not |= tk.is_ident("not");
                k += 1;
            }
            // `cfg(not(...))` selects the *default* build: not a gate.
            pending_gate |= saw_cfg && saw_cond && !saw_not;
            i = k + 1;
            continue;
        }

        if t.is_ident("impl") || t.is_ident("trait") || t.is_ident("mod") {
            let gated = pending_gate || inherited_gate;
            pending_gate = false;
            // Find the block's `{` (or `;` for file modules / bare decls),
            // ignoring `>` that closes generics vs `->` arrows.
            let mut k = i + 1;
            let mut open = None;
            while k < toks.len() {
                if toks[k].is_punct('{') {
                    open = Some(k);
                    break;
                }
                if toks[k].is_punct(';') {
                    break;
                }
                k += 1;
            }
            if let Some(open) = open {
                if let Some(end) = matching_brace(toks, open) {
                    let owner = if t.is_ident("mod") {
                        regions.last().and_then(|r| r.1.clone())
                    } else {
                        self_type_name(&toks[i + 1..open])
                    };
                    regions.push((end, owner, gated));
                }
            }
            i = k;
            continue;
        }

        if t.is_ident("fn") && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) {
            let gated = pending_gate || inherited_gate;
            pending_gate = false;
            let name = toks[i + 1].text.clone();
            // Scan the signature for the body `{` or a bodiless `;`,
            // skipping bracketed groups (`[u8; 4]` hides a `;`).
            let mut k = i + 2;
            let mut sq = 0i64;
            let mut body = None;
            while k < toks.len() {
                let tk = &toks[k];
                if tk.is_punct('[') {
                    sq += 1;
                } else if tk.is_punct(']') {
                    sq -= 1;
                } else if sq == 0 && tk.is_punct('{') {
                    body = Some(k);
                    break;
                } else if sq == 0 && tk.is_punct(';') {
                    break;
                }
                k += 1;
            }
            if let Some(open) = body {
                if let Some(end) = matching_brace(toks, open) {
                    defs.push(FnDef {
                        name,
                        owner: regions.last().and_then(|r| r.1.clone()),
                        file: relpath.to_string(),
                        from_line: t.line,
                        to_line: toks[end].line,
                        cfg_gated: gated,
                        calls: body_calls(&toks[open + 1..end]),
                    });
                }
            }
            i = k;
            continue;
        }

        if matches!(&t.kind, TokKind::Ident if ITEM_KEYWORDS.contains(&t.text.as_str())) {
            pending_gate = false;
        } else if !is_item_qualifier(t) && t.kind == TokKind::Ident {
            // Any other identifier means we are inside expression/type
            // context; a pending attribute no longer applies to a `fn`.
            pending_gate = false;
        }
        i += 1;
    }
    defs
}

/// The self-type name of an `impl`/`trait` header (the tokens between the
/// keyword and the opening brace): the last path segment of the type after
/// `for` when present, otherwise the first path after any leading generics.
fn self_type_name(header: &[Token]) -> Option<String> {
    // Prefer the `for` clause (`impl Trait for Type`), tracking angle
    // depth so `for` inside generic bounds (`impl<T: for<'a> ..>`) is
    // skipped.
    let mut angle = 0i64;
    let mut start = 0usize;
    for (j, t) in header.iter().enumerate() {
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>')
            && !header
                .get(j.wrapping_sub(1))
                .is_some_and(|p| p.is_punct('-'))
        {
            angle -= 1;
        } else if angle == 0 && t.is_ident("for") {
            start = j + 1;
        }
    }
    // Skip reference/pointer noise, then take the last segment of the
    // leading path.
    let mut j = start;
    // Also skip a leading generic group when no `for` moved us.
    if header.get(j).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i64;
        while j < header.len() {
            if header[j].is_punct('<') {
                depth += 1;
            } else if header[j].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    while header.get(j).is_some_and(|t| {
        t.is_punct('&')
            || t.kind == TokKind::Lifetime
            || t.is_ident("mut")
            || t.is_ident("dyn")
            || t.is_ident("where")
    }) {
        j += 1;
    }
    let mut name = match header.get(j) {
        Some(t) if t.kind == TokKind::Ident => t.text.clone(),
        _ => return None,
    };
    while header.get(j + 1).is_some_and(|t| t.is_punct(':'))
        && header.get(j + 2).is_some_and(|t| t.is_punct(':'))
        && header.get(j + 3).is_some_and(|t| t.kind == TokKind::Ident)
    {
        name = header[j + 3].text.clone();
        j += 3;
    }
    Some(name)
}

/// Every `name(` / `recv.name(` / `Qual::name(` inside a body.
fn body_calls(body: &[Token]) -> Vec<CallRef> {
    let mut calls = Vec::new();
    for (j, t) in body.iter().enumerate() {
        if t.kind != TokKind::Ident || !body.get(j + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        if CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        let qualifier = if j >= 3
            && body[j - 1].is_punct(':')
            && body[j - 2].is_punct(':')
            && body[j - 3].kind == TokKind::Ident
        {
            Some(body[j - 3].text.clone())
        } else {
            None
        };
        calls.push(CallRef {
            name: t.text.clone(),
            qualifier,
        });
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(defs: &[FnDef]) -> Vec<(&str, Option<&str>, bool)> {
        defs.iter()
            .map(|d| (d.name.as_str(), d.owner.as_deref(), d.cfg_gated))
            .collect()
    }

    #[test]
    fn extracts_free_and_impl_fns_with_owner() {
        let src = "fn free() { helper(); }\n\
                   struct Foo;\n\
                   impl Foo {\n\
                       pub fn method(&self) -> u32 { self.other(1) }\n\
                   }\n\
                   impl core::fmt::Display for Foo {\n\
                       fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result { write(f) }\n\
                   }\n";
        let defs = extract("a.rs", src);
        assert_eq!(
            names(&defs),
            vec![
                ("free", None, false),
                ("method", Some("Foo"), false),
                ("fmt", Some("Foo"), false),
            ]
        );
        assert_eq!(defs[0].calls.len(), 1);
        assert_eq!(defs[0].calls[0].name, "helper");
    }

    #[test]
    fn cfg_gates_propagate_from_attrs_and_enclosing_items() {
        let src = "#[cfg(feature = \"audit\")]\nfn gated() {}\n\
                   #[cfg(test)]\nmod tests {\n    fn inner() {}\n}\n\
                   #[cfg(not(feature = \"audit\"))]\nfn ungated() {}\n\
                   #[inline]\nfn plain() {}\n";
        let defs = extract("a.rs", src);
        assert_eq!(
            names(&defs),
            vec![
                ("gated", None, true),
                ("inner", None, true),
                ("ungated", None, false),
                ("plain", None, false),
            ]
        );
    }

    #[test]
    fn calls_record_qualifiers_and_skip_keywords() {
        let src = "fn f(v: &[u8; 4]) {\n\
                       if cond() { Routing::apply(v); }\n\
                       x.method_call(3);\n\
                       while other() {}\n\
                   }\n";
        let defs = extract("a.rs", src);
        let calls: Vec<(&str, Option<&str>)> = defs[0]
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.qualifier.as_deref()))
            .collect();
        assert_eq!(
            calls,
            vec![
                ("cond", None),
                ("apply", Some("Routing")),
                ("method_call", None),
                ("other", None),
            ]
        );
    }

    #[test]
    fn bodiless_trait_methods_are_skipped() {
        let src = "trait T {\n    fn decl(&self);\n    fn with_default(&self) { self.decl() }\n}\n";
        let defs = extract("a.rs", src);
        assert_eq!(names(&defs), vec![("with_default", Some("T"), false)]);
    }

    #[test]
    fn line_spans_cover_signature_to_closing_brace() {
        let src = "fn f(\n    a: u32,\n) -> u32 {\n    a\n}\n";
        let defs = extract("a.rs", src);
        assert_eq!((defs[0].from_line, defs[0].to_line), (1, 5));
    }
}
