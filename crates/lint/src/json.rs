//! Minimal JSON writer for the `psml.lint.v2` document.
//!
//! `psml-trace` already has a JSON module, but this crate is deliberately
//! dependency-free — the analyzer must stay buildable and runnable even
//! when the crates it scans don't compile — so it carries its own ~80-line
//! writer. Emission order is the insertion order of the object pairs,
//! which keeps documents byte-stable across runs.

/// A JSON value.
pub enum Json {
    /// String.
    Str(String),
    /// Unsigned integer.
    UInt(u64),
    /// Boolean.
    Bool(bool),
    /// Array.
    Array(Vec<Json>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

/// Builds an object from `(key, value)` pairs.
pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl Json {
    /// Serializes to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Str(s) => write_escaped(s, out),
            Json::UInt(n) => out.push_str(&n.to_string()),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_nests() {
        let doc = obj([
            ("a", Json::Str("x\"y\\z\n".into())),
            ("n", Json::UInt(7)),
            (
                "arr",
                Json::Array(vec![Json::Bool(true), Json::Str("é".into())]),
            ),
        ]);
        assert_eq!(
            doc.to_json(),
            "{\"a\":\"x\\\"y\\\\z\\n\",\"n\":7,\"arr\":[true,\"é\"]}"
        );
    }

    #[test]
    fn control_chars_use_unicode_escapes() {
        assert_eq!(Json::Str("\u{1}".into()).to_json(), "\"\\u0001\"");
    }
}
