//! A JSON value, its parser and its printer.  The offline vendor set has no
//! serde; run files are written and read back (`--compare`) through this.

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion order is kept so run files read top-down like the issue.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// One line, no spaces after separators other than one after `:` and `,`.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented; arrays of scalars and objects of scalars stay on one line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => out.push_str(&number(*v)),
            Json::Str(s) => escape_into(out, s),
            Json::Arr(items) => {
                let flat = indent.is_none() || items.iter().all(Json::is_scalar);
                write_seq(
                    out,
                    '[',
                    ']',
                    items.len(),
                    flat,
                    indent,
                    depth,
                    |out, i, ind| {
                        items[i].write(out, ind, depth + 1);
                    },
                );
            }
            Json::Obj(pairs) => {
                let flat = indent.is_none() || pairs.iter().all(|(_, v)| v.is_scalar());
                write_seq(
                    out,
                    '{',
                    '}',
                    pairs.len(),
                    flat,
                    indent,
                    depth,
                    |out, i, ind| {
                        escape_into(out, &pairs[i].0);
                        out.push_str(": ");
                        pairs[i].1.write(out, ind, depth + 1);
                    },
                );
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn write_seq(
    out: &mut String,
    open: char,
    close: char,
    len: usize,
    flat: bool,
    indent: Option<usize>,
    depth: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    let child = if flat { None } else { indent };
    for i in 0..len {
        if i > 0 {
            out.push(',');
            if flat {
                out.push(' ');
            }
        }
        if let Some(w) = child {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        item(out, i, child);
    }
    if let (Some(w), true) = (child, len > 0) {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
    out.push(close);
}

/// A number as measured, with all its digits (shortest representation that
/// reads back to the same `f64`); non-finite values have no JSON form.
pub fn number(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", c as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    pairs.push((key, self.value()?));
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
                    }
                }
            }
            Some(_) => {
                let start = self.pos;
                while self.pos < self.bytes.len()
                    && matches!(
                        self.bytes[self.pos],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at offset {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected a string at offset {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let c = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            out.extend_from_slice(hex.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

/// `--self-test`: print, parse back, compare.
pub fn self_test() -> Vec<(&'static str, bool)> {
    let doc = Json::obj(vec![
        ("name", Json::str("a \"quoted\"\nline")),
        ("x", Json::Num(0.1 + 0.2)),
        ("n", Json::Num(154861168.0)),
        ("tiny", Json::Num(6.507541593315771e-8)),
        ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
        (
            "nested",
            Json::obj(vec![("k", Json::Arr(vec![Json::obj(vec![])]))]),
        ),
    ]);
    vec![
        (
            "json.compact_roundtrip",
            parse(&doc.compact()) == Ok(doc.clone()),
        ),
        (
            "json.pretty_roundtrip",
            parse(&doc.pretty()) == Ok(doc.clone()),
        ),
        (
            "json.integers_print_plain",
            number(154861168.0) == "154861168",
        ),
        ("json.rejects_trailing", parse("{} x").is_err()),
        ("json.compact_is_one_line", !doc.compact().contains('\n')),
    ]
}
