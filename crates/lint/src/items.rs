//! Item extraction: the lightweight structural view the semantic rules
//! run on.
//!
//! From the lexed token stream of one file this module recovers just
//! enough structure for cross-file analysis — the `fn` items with their
//! line spans, the names each fn calls (an over-approximation: every
//! `name(`/`name::<T>(` inside the body, closures attributed to the
//! enclosing fn), and the *hazard sites* the R/F/P rule families reason
//! about. No syntax tree is built; like the token rules, everything is a
//! pattern over ident/punct sequences, which keeps the extractor fast
//! enough to run on every file of every `mmlint` invocation.

use crate::lexer::{Lexed, TokKind};

/// The kinds of code site the graph rules care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HazardKind {
    /// `stream_rng(master, <const literal>)` — the label R003 dedups.
    StreamLabel,
    /// An order-sensitive f64 reduction (`sum::<f64>()`, an f64-typed
    /// `.sum()`, a float-seeded `.fold(`, or a `+=` of a float literal).
    FloatReduce,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    PanicMacro,
    /// An index expression whose subscript contains an `as` cast
    /// (`v[i as usize]`) — the P002 out-of-bounds panic shape.
    CastIndex,
}

/// One hazard site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hazard {
    /// What kind of site this is.
    pub kind: HazardKind,
    /// 1-based line of the site.
    pub line: u32,
    /// Inside a `#[cfg(test)]` region?
    pub in_test: bool,
    /// Kind-specific payload: the normalized label for [`StreamLabel`],
    /// the matched pattern for [`FloatReduce`], the macro name for
    /// [`PanicMacro`].
    ///
    /// [`StreamLabel`]: HazardKind::StreamLabel
    /// [`FloatReduce`]: HazardKind::FloatReduce
    /// [`PanicMacro`]: HazardKind::PanicMacro
    pub detail: String,
}

/// One `fn` item with the facts the call graph needs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FnItem {
    /// The fn's name (last path segment only).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based line of the body's closing brace.
    pub end_line: u32,
    /// Declared under `#[cfg(test)]` (or the attribute covers it)?
    pub in_test: bool,
    /// Names invoked in the body — both free fns and methods, closures
    /// included. Over-approximate and unresolved; resolution happens in
    /// the workspace graph.
    pub calls: Vec<String>,
    /// Hazard sites inside the body.
    pub hazards: Vec<Hazard>,
}

/// Everything extracted from one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileItems {
    /// Every `fn` in lexical order (nested fns appear as separate items).
    pub fns: Vec<FnItem>,
    /// Hazards outside any fn body (const initializers and the like).
    pub loose_hazards: Vec<Hazard>,
}

impl FileItems {
    /// All hazards of the file — fn-attributed and loose.
    pub fn all_hazards(&self) -> impl Iterator<Item = &Hazard> {
        self.fns
            .iter()
            .flat_map(|f| f.hazards.iter())
            .chain(self.loose_hazards.iter())
    }
}

/// Keywords that look like calls when followed by `(` but are not.
const NOT_CALLS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "as", "in", "let", "move", "ref", "mut",
    "pub", "use", "mod", "impl", "fn", "struct", "enum", "trait", "type", "where", "unsafe",
    "else", "break", "continue", "dyn", "await", "async", "crate", "super",
];

/// Panic-family macro names (P001 sites when invoked with `!`).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Is this numeric-literal text a float (`2.5`, `1f64`) rather than an
/// integer? Hex literals are never floats even when their suffix-looking
/// tail contains `f`.
fn is_float_literal(text: &str) -> bool {
    !text.starts_with("0x")
        && (text.contains('.') || text.ends_with("f64") || text.ends_with("f32"))
}

/// Canonicalize a numeric literal (`0x5e5e`, `1_000u64`) to a decimal
/// string so the same label spelled differently still collides in R003.
/// Falls back to the raw text when nothing parses.
pub fn normalize_num(text: &str) -> String {
    let clean: String = text.chars().filter(|c| *c != '_').collect();
    let (digits, radix) = match clean.strip_prefix("0x") {
        Some(hex) => (hex, 16u64),
        None => (clean.as_str(), 10u64),
    };
    let mut value = 0u64;
    let mut any = false;
    for c in digits.chars() {
        let Some(d) = c.to_digit(radix as u32) else {
            break;
        };
        any = true;
        value = value.wrapping_mul(radix).wrapping_add(u64::from(d));
    }
    if any {
        value.to_string()
    } else {
        text.to_string()
    }
}

/// Extract fns, calls, and hazard sites from a lexed file.
/// `test_ranges` are the `#[cfg(test)]` line spans from the engine.
pub fn extract(lexed: &Lexed, test_ranges: &[(u32, u32)]) -> FileItems {
    let toks = &lexed.toks;
    let in_test = |line: u32| test_ranges.iter().any(|&(s, e)| line >= s && line <= e);

    let mut out = FileItems::default();
    // (index into out.fns, brace depth the body opened at).
    let mut stack: Vec<(usize, i32)> = Vec::new();
    let mut depth = 0i32;
    // A `fn NAME` seen but its body `{` not yet reached; the counters
    // track signature parens/brackets so `fn f(x: [u8; 4])` survives and
    // a trait's braceless `fn f();` is dropped at the `;`.
    let mut pending: Option<(String, u32)> = None;
    let mut sig_paren = 0i32;
    let mut sig_bracket = 0i32;

    let push_hazard = |stack: &Vec<(usize, i32)>,
                       fns: &mut Vec<FnItem>,
                       loose: &mut Vec<Hazard>,
                       kind: HazardKind,
                       line: u32,
                       detail: String| {
        let hazard = Hazard {
            kind,
            line,
            in_test: in_test(line),
            detail,
        };
        match stack.last() {
            Some(&(fi, _)) => fns[fi].hazards.push(hazard),
            None => loose.push(hazard),
        }
    };

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];

        // `fn NAME` opens a pending item (`Fn` trait bounds are `Fn`,
        // never lower-case, so the keyword test is unambiguous).
        if t.kind == TokKind::Ident && t.text == "fn" {
            if let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                pending = Some((name.text.clone(), t.line));
                sig_paren = 0;
                sig_bracket = 0;
                i += 2;
                continue;
            }
        }

        match t.text.as_str() {
            "{" => {
                depth += 1;
                if let Some((name, line)) = pending.take() {
                    out.fns.push(FnItem {
                        name,
                        line,
                        end_line: line,
                        in_test: in_test(line),
                        calls: Vec::new(),
                        hazards: Vec::new(),
                    });
                    stack.push((out.fns.len() - 1, depth));
                }
            }
            "}" => {
                depth -= 1;
                while let Some(&(fi, d)) = stack.last() {
                    if d > depth {
                        out.fns[fi].end_line = t.line;
                        stack.pop();
                    } else {
                        break;
                    }
                }
            }
            "(" if pending.is_some() => sig_paren += 1,
            ")" if pending.is_some() => sig_paren -= 1,
            "[" if pending.is_some() => sig_bracket += 1,
            "]" if pending.is_some() => sig_bracket -= 1,
            ";" if pending.is_some() && sig_paren == 0 && sig_bracket == 0 => {
                // Braceless declaration (trait method): not an item here.
                pending = None;
            }
            _ => {}
        }

        // Call collection: `name(` and `name::<T>(`.
        if t.kind == TokKind::Ident && !NOT_CALLS.contains(&t.text.as_str()) {
            if let Some(&(fi, _)) = stack.last() {
                if is_call_at(lexed, i) {
                    out.fns[fi].calls.push(t.text.clone());
                }
            }
        }

        // Hazard sites.
        if t.kind == TokKind::Ident {
            if t.text == "stream_rng" && toks.get(i + 1).is_some_and(|n| n.text == "(") {
                if let Some(label) = const_second_arg(lexed, i + 1) {
                    push_hazard(
                        &stack,
                        &mut out.fns,
                        &mut out.loose_hazards,
                        HazardKind::StreamLabel,
                        t.line,
                        label,
                    );
                }
            }
            if PANIC_MACROS.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|n| n.text == "!")
            {
                push_hazard(
                    &stack,
                    &mut out.fns,
                    &mut out.loose_hazards,
                    HazardKind::PanicMacro,
                    t.line,
                    t.text.clone(),
                );
            }
            if let Some(detail) = float_reduce_at(lexed, i) {
                push_hazard(
                    &stack,
                    &mut out.fns,
                    &mut out.loose_hazards,
                    HazardKind::FloatReduce,
                    t.line,
                    detail,
                );
            }
        }
        if t.text == "+"
            && toks.get(i + 1).is_some_and(|n| n.text == "=")
            && float_before_semicolon(lexed, i + 2)
        {
            push_hazard(
                &stack,
                &mut out.fns,
                &mut out.loose_hazards,
                HazardKind::FloatReduce,
                t.line,
                "+= float".to_string(),
            );
        }
        if t.text == "[" && is_index_open(lexed, i) && subscript_has_cast(lexed, i) {
            push_hazard(
                &stack,
                &mut out.fns,
                &mut out.loose_hazards,
                HazardKind::CastIndex,
                t.line,
                "as-cast subscript".to_string(),
            );
        }

        i += 1;
    }

    // Unclosed fns at EOF (truncated input): close at the last line.
    if let Some(last) = toks.last() {
        for &(fi, _) in &stack {
            out.fns[fi].end_line = last.line;
        }
    }
    out
}

/// Is the ident at `i` the callee of a call — followed by `(`, or by a
/// turbofish `::<...>(`?
fn is_call_at(lexed: &Lexed, i: usize) -> bool {
    let toks = &lexed.toks;
    match toks.get(i + 1) {
        Some(n) if n.text == "(" => true,
        Some(n) if n.text == ":" => {
            // `name::<...>(` — walk the generic args to the matching `>`.
            if toks.get(i + 2).is_none_or(|t| t.text != ":")
                || toks.get(i + 3).is_none_or(|t| t.text != "<")
            {
                return false;
            }
            let mut angle = 1i32;
            let mut j = i + 4;
            while j < toks.len() && angle > 0 && j - i < 40 {
                match toks[j].text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    _ => {}
                }
                j += 1;
            }
            angle == 0 && toks.get(j).is_some_and(|t| t.text == "(")
        }
        _ => false,
    }
}

/// For a `stream_rng(` at `open` (index of the `(`): when the second
/// argument is exactly one numeric literal, its normalized value.
fn const_second_arg(lexed: &Lexed, open: usize) -> Option<String> {
    let toks = &lexed.toks;
    let mut pdepth = 1i32;
    let mut j = open + 1;
    // Skip the first argument up to the comma at depth 1.
    while j < toks.len() && j - open < 200 {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => pdepth += 1,
            ")" | "]" | "}" => {
                pdepth -= 1;
                if pdepth == 0 {
                    return None; // one-argument call
                }
            }
            "," if pdepth == 1 => break,
            _ => {}
        }
        j += 1;
    }
    let arg2 = toks.get(j + 1)?;
    let close = toks.get(j + 2)?;
    if arg2.kind == TokKind::Num && close.text == ")" {
        Some(normalize_num(&arg2.text))
    } else {
        None
    }
}

/// F-rule reduction patterns anchored at the ident `i`.
fn float_reduce_at(lexed: &Lexed, i: usize) -> Option<String> {
    let toks = &lexed.toks;
    let t = &toks[i];
    if t.text == "sum" {
        // `sum::<f64>(` — the explicit form.
        if toks.get(i + 1).is_some_and(|n| n.text == ":")
            && toks.get(i + 2).is_some_and(|n| n.text == ":")
            && toks.get(i + 3).is_some_and(|n| n.text == "<")
            && toks.get(i + 4).is_some_and(|n| n.text == "f64")
        {
            return Some("sum::<f64>()".to_string());
        }
        // `.sum()` whose statement is f64-typed (`let total: f64 = ...`).
        if i > 0
            && toks[i - 1].text == "."
            && toks.get(i + 1).is_some_and(|n| n.text == "(")
            && toks.get(i + 2).is_some_and(|n| n.text == ")")
        {
            let mut j = i - 1;
            let mut steps = 0usize;
            while j > 0 && steps < 60 {
                j -= 1;
                steps += 1;
                match toks[j].text.as_str() {
                    ";" | "{" | "}" => break,
                    "f64" => return Some("f64-typed sum()".to_string()),
                    _ => {}
                }
            }
        }
        return None;
    }
    // `.fold(<float literal>, ...)`.
    if t.text == "fold"
        && i > 0
        && toks[i - 1].text == "."
        && toks.get(i + 1).is_some_and(|n| n.text == "(")
    {
        let mut j = i + 2;
        let mut pdepth = 1i32;
        while j < toks.len() && j - i < 40 && pdepth > 0 {
            match toks[j].text.as_str() {
                "(" | "[" | "{" => pdepth += 1,
                ")" | "]" | "}" => pdepth -= 1,
                "," if pdepth == 1 => break,
                _ => {}
            }
            if toks[j].kind == TokKind::Num && is_float_literal(&toks[j].text) {
                return Some("float-seeded fold()".to_string());
            }
            j += 1;
        }
    }
    None
}

/// Does a float literal appear between `from` and the statement's `;`?
fn float_before_semicolon(lexed: &Lexed, from: usize) -> bool {
    let toks = &lexed.toks;
    let mut saw_float = false;
    let mut j = from;
    while j < toks.len() && j - from < 40 {
        match toks[j].text.as_str() {
            ";" | "{" | "}" => break,
            // `(x * 1000.0) as u64` accumulates in integer space: the float
            // is quantized before the `+=`, so order cannot matter.
            "as" if toks[j].kind == TokKind::Ident
                && toks
                    .get(j + 1)
                    .is_some_and(|n| INT_TYPES.contains(&n.text.as_str())) =>
            {
                return false;
            }
            _ => {}
        }
        if toks[j].kind == TokKind::Num && is_float_literal(&toks[j].text) {
            saw_float = true;
        }
        j += 1;
    }
    saw_float
}

/// Primitive integer type names an `as` cast can quantize a float into.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Is the `[` at `i` an *index* expression (`expr[...]`) rather than an
/// array/slice type or literal? True when the previous token could end an
/// expression.
fn is_index_open(lexed: &Lexed, i: usize) -> bool {
    if i == 0 {
        return false;
    }
    let prev = &lexed.toks[i - 1];
    prev.kind == TokKind::Ident && !NOT_CALLS.contains(&prev.text.as_str())
        || prev.text == "]"
        || prev.text == ")"
}

/// Does the subscript opened at `i` contain an `as` cast?
fn subscript_has_cast(lexed: &Lexed, i: usize) -> bool {
    let toks = &lexed.toks;
    let mut bdepth = 1i32;
    let mut j = i + 1;
    while j < toks.len() && bdepth > 0 && j - i < 200 {
        match toks[j].text.as_str() {
            "[" => bdepth += 1,
            "]" => bdepth -= 1,
            "as" if bdepth >= 1 && toks[j].kind == TokKind::Ident => return true,
            _ => {}
        }
        j += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> FileItems {
        extract(&lex(src), &[])
    }

    #[test]
    fn fns_get_names_spans_and_nesting() {
        let src = "fn outer() {\n\
                   fn inner() { helper(); }\n\
                   top();\n\
                   }\n\
                   fn later() {}\n";
        let f = items(src);
        let names: Vec<&str> = f.fns.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner", "later"]);
        assert_eq!((f.fns[0].line, f.fns[0].end_line), (1, 4));
        assert_eq!(f.fns[1].calls, vec!["helper"]);
        assert_eq!(f.fns[0].calls, vec!["top"]);
    }

    #[test]
    fn calls_include_methods_paths_and_turbofish() {
        let src = "fn f() {\n\
                   let x = mmlab::campaign::city_network(w);\n\
                   x.render();\n\
                   let s = v.iter().sum::<u64>();\n\
                   }\n";
        let f = items(src);
        let calls = &f.fns[0].calls;
        assert!(calls.contains(&"city_network".to_string()), "{calls:?}");
        assert!(calls.contains(&"render".to_string()));
        assert!(calls.contains(&"sum".to_string()));
        assert!(calls.contains(&"iter".to_string()));
    }

    #[test]
    fn array_typed_params_do_not_end_the_signature() {
        let f = items("fn f(x: [u8; 4]) -> u8 { x[0] }\n");
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "f");
    }

    #[test]
    fn trait_declarations_are_not_items() {
        let f = items("trait T { fn a(&self); fn b(&self) -> [u8; 2]; }\nfn real() {}\n");
        let names: Vec<&str> = f.fns.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn stream_label_hazard_only_for_const_labels() {
        let src = "fn f(seed: u64) {\n\
                   let a = stream_rng(seed, 0x5e5e);\n\
                   let b = stream_rng(seed, sub_seed(8, x));\n\
                   let c = stream_rng(master_of(q), 7);\n\
                   }\n";
        let f = items(src);
        let labels: Vec<(&str, u32)> = f.fns[0]
            .hazards
            .iter()
            .filter(|h| h.kind == HazardKind::StreamLabel)
            .map(|h| (h.detail.as_str(), h.line))
            .collect();
        assert_eq!(labels, vec![("24158", 2), ("7", 4)]);
    }

    #[test]
    fn float_reduce_patterns_fire_and_integer_sums_do_not() {
        let src = "fn f(v: &[f64]) -> f64 {\n\
                   let a = v.iter().sum::<f64>();\n\
                   let total: f64 = v.iter().map(|x| x * 2.0).sum();\n\
                   let b = v.iter().fold(0.0, |acc, x| acc + x);\n\
                   let mut acc = 0.0; acc += 1.5;\n\
                   let n: u64 = w.iter().sum();\n\
                   let m = w.iter().sum::<u64>();\n\
                   a\n\
                   }\n";
        let f = items(src);
        let reduces: Vec<u32> = f.fns[0]
            .hazards
            .iter()
            .filter(|h| h.kind == HazardKind::FloatReduce)
            .map(|h| h.line)
            .collect();
        assert_eq!(reduces, vec![2, 3, 4, 5]);
    }

    #[test]
    fn panic_macros_are_hazards() {
        let src = "fn f() { unreachable!(\"no\") }\nfn g() { other!(1) }\n";
        let f = items(src);
        assert_eq!(f.fns[0].hazards.len(), 1);
        assert_eq!(f.fns[0].hazards[0].kind, HazardKind::PanicMacro);
        assert_eq!(f.fns[0].hazards[0].detail, "unreachable");
        assert!(f.fns[1].hazards.is_empty());
    }

    #[test]
    fn cast_index_fires_on_subscripts_not_types() {
        let src = "fn f(v: &[u64], i: u32) -> u64 {\n\
                   let x: [u8; 4] = [0; 4];\n\
                   let a = v[i as usize];\n\
                   let b = v[3];\n\
                   a + u64::from(x[0]) + b\n\
                   }\n";
        let f = items(src);
        let casts: Vec<u32> = f.fns[0]
            .hazards
            .iter()
            .filter(|h| h.kind == HazardKind::CastIndex)
            .map(|h| h.line)
            .collect();
        assert_eq!(casts, vec![3]);
    }

    #[test]
    fn test_ranges_mark_fns_and_hazards() {
        let src = "fn prod() { v[i as usize]; }\n\
                   fn testish() { panic!(\"x\") }\n";
        let f = extract(&lex(src), &[(2, 2)]);
        assert!(!f.fns[0].in_test);
        assert!(f.fns[1].in_test);
        assert!(f.fns[1].hazards[0].in_test);
    }

    #[test]
    fn normalize_num_canonicalizes_spellings() {
        assert_eq!(normalize_num("0x5e5e"), "24158");
        assert_eq!(normalize_num("1_000"), "1000");
        assert_eq!(normalize_num("7u64"), "7");
        assert_eq!(normalize_num("abc"), "abc");
    }

    #[test]
    fn hazards_outside_fns_are_loose() {
        let f = items("static X: u64 = FOO[3 as usize];\nfn f() {}\n");
        assert_eq!(f.loose_hazards.len(), 1);
        assert_eq!(f.loose_hazards[0].kind, HazardKind::CastIndex);
    }
}
