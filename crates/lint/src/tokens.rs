//! Token-stream helpers shared by every pass: the lexer yields a flat
//! token list, and each rule walks it with these few primitives instead
//! of its own bracket counting.

use crate::lexer::{Tok, TokKind};

/// Whether the token at `i` has exactly the text `s`.
pub fn tok_is(t: &[Tok], i: usize, s: &str) -> bool {
    t.get(i).map(|x| x.text.as_str()) == Some(s)
}

/// Whether the token at `i` is an identifier (or keyword).
pub fn is_ident(t: &[Tok], i: usize) -> bool {
    t.get(i).map(|x| x.kind) == Some(TokKind::Ident)
}

/// Skips a balanced delimiter run starting at the opener; returns the
/// index after the matching closer.
pub fn skip_balanced(t: &[Tok], open_idx: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    let mut j = open_idx;
    while j < t.len() {
        if t[j].text == open {
            depth += 1;
        } else if t[j].text == close {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    t.len()
}

/// Skips a `< ... >` generic group starting at the `<`; returns the index
/// after the matching `>`. `->`'s `>` (function-trait bounds like
/// `F: Fn() -> u64`) does not close a group.
pub fn skip_angles(t: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < t.len() {
        match t[j].text.as_str() {
            "<" => depth += 1,
            ">" if j > 0 && t[j - 1].text == "-" => {}
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            "{" | ";" => return j,
            _ => {}
        }
        j += 1;
    }
    j
}

/// Skips outer attributes (`#[..]`, `#![..]`) and a visibility qualifier
/// (`pub`, `pub(crate)`) starting at `j`; returns the index of the first
/// token after them.
pub fn skip_attrs_and_vis(t: &[Tok], mut j: usize) -> usize {
    loop {
        if tok_is(t, j, "#") {
            j += 1;
            if tok_is(t, j, "!") {
                j += 1;
            }
            if tok_is(t, j, "[") {
                j = skip_balanced(t, j, "[", "]");
            }
        } else if tok_is(t, j, "pub") {
            j += 1;
            if tok_is(t, j, "(") {
                j = skip_balanced(t, j, "(", ")");
            }
        } else {
            return j;
        }
    }
}

/// Scans forward from `from` to the end of the expression it starts:
/// the first `;` at depth zero, a closer that leaves the enclosing group,
/// or — when `stop_at_block` — a `{` at depth zero (the block opener after
/// an `if`/`while`/`match` head or an `if let` scrutinee). Returns the
/// index of that token, or `limit`.
pub fn expr_end(t: &[Tok], from: usize, limit: usize, stop_at_block: bool) -> usize {
    let mut depth = 0usize;
    let mut k = from;
    while k < limit {
        match t[k].text.as_str() {
            "{" if depth == 0 && stop_at_block => return k,
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    return k;
                }
                depth -= 1;
            }
            ";" if depth == 0 => return k,
            _ => {}
        }
        k += 1;
    }
    limit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).toks
    }

    fn pos(t: &[Tok], s: &str) -> usize {
        t.iter().position(|x| x.text == s).unwrap()
    }

    #[test]
    fn expr_end_stops_at_statement_block_or_group_end() {
        let t = toks("let x = f(a; b) + [c; 2]; if y { z } (q)");
        assert_eq!(expr_end(&t, 3, t.len(), false), pos(&t, "]") + 1);
        let cond = pos(&t, "if") + 1;
        assert_eq!(t[expr_end(&t, cond, t.len(), true)].text, "{");
        let inner = pos(&t, "q");
        assert_eq!(t[expr_end(&t, inner, t.len(), true)].text, ")");
    }

    #[test]
    fn attrs_and_visibility_are_skipped() {
        let t = toks("#[derive(Clone)] #![x] pub(crate) struct S;");
        assert_eq!(t[skip_attrs_and_vis(&t, 0)].text, "struct");
    }
}
