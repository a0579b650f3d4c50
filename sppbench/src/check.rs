//! The independent answer checker. It shares no code with the engine: it
//! reads the input PLA with its own parser, parses each returned `form`
//! string, evaluates it on every point of the input space and recounts
//! its literals. It never looks at the program's `verified` flag.

/// A PLA's single output as explicit point sets over `n` inputs
/// (`n ≤ 20`): `on[p]` / `dc[p]` for every point `p`, where bit `i` of
/// `p` is input column `i`.
#[derive(Clone, Debug)]
pub struct Truth {
    pub n: usize,
    pub on: Vec<bool>,
    pub dc: Vec<bool>,
}

/// Reads a one-output `.type f`/`fd` PLA: `1` rows are ON, `-` rows are
/// don't-cares, everything else is OFF.
pub fn read_pla(text: &str) -> Result<Truth, String> {
    let mut n: Option<usize> = None;
    let mut rows: Vec<(String, char)> = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix(".i ") {
            n = Some(
                rest.trim()
                    .parse()
                    .map_err(|_| format!("bad .i line {line:?}"))?,
            );
        } else if let Some(rest) = line.strip_prefix(".o ") {
            if rest.trim() != "1" {
                return Err(format!("expected one output, got {line:?}"));
            }
        } else if let Some(rest) = line.strip_prefix(".type ") {
            if !matches!(rest.trim(), "f" | "fd") {
                return Err(format!("unsupported PLA type {line:?}"));
            }
        } else if line.starts_with('.') {
            continue;
        } else {
            let mut parts = line.split_whitespace();
            let (cube, out) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            let out = out
                .chars()
                .next()
                .ok_or_else(|| format!("row without output {line:?}"))?;
            rows.push((cube.to_owned(), out));
        }
    }
    let n = n.ok_or("missing .i line")?;
    if n > 20 {
        return Err(format!("{n} inputs is beyond the exhaustive checker"));
    }
    let mut truth = Truth {
        n,
        on: vec![false; 1 << n],
        dc: vec![false; 1 << n],
    };
    for (cube, out) in rows {
        if cube.len() != n {
            return Err(format!("row {cube:?} is not {n} wide"));
        }
        let (mut care, mut value) = (0usize, 0usize);
        for (i, c) in cube.chars().enumerate() {
            match c {
                '0' => care |= 1 << i,
                '1' => {
                    care |= 1 << i;
                    value |= 1 << i;
                }
                '-' => {}
                _ => return Err(format!("bad cube character {c:?}")),
            }
        }
        let set = match out {
            '1' => &mut truth.on,
            '-' => &mut truth.dc,
            _ => continue,
        };
        for (p, slot) in set.iter_mut().enumerate() {
            if p & care == value {
                *slot = true;
            }
        }
    }
    Ok(truth)
}

/// One EXOR factor: the parity of the variables in `mask` must equal
/// `parity`. A plain literal is a one-variable factor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Factor {
    mask: u64,
    parity: bool,
}

/// A parsed form: terms (products of factors) combined by OR, or by XOR
/// when the top-level separator is `⊕` (an ESOP).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedForm {
    terms: Vec<Vec<Factor>>,
    xor: bool,
    literals: u64,
}

impl ParsedForm {
    pub fn literals(&self) -> u64 {
        self.literals
    }

    #[cfg(test)]
    pub fn terms(&self) -> usize {
        self.terms.len()
    }

    pub fn eval(&self, point: u64) -> bool {
        let term = |t: &Vec<Factor>| {
            t.iter()
                .all(|f| ((point & f.mask).count_ones() % 2 == 1) == f.parity)
        };
        if self.xor {
            self.terms.iter().filter(|t| term(t)).count() % 2 == 1
        } else {
            self.terms.iter().any(term)
        }
    }
}

/// Splits `s` on `sep` where the parenthesis depth is zero.
fn split_top(s: &str, sep: char) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut depth, mut start) = (0i32, 0);
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth -= 1,
            c if c == sep && depth == 0 => {
                out.push(&s[start..i]);
                start = i + c.len_utf8();
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

/// Parses `x3`, `x̄3` (x + U+0304 combining macron) into (variable,
/// complemented), counting one literal.
fn parse_literal(s: &str) -> Result<(usize, bool), String> {
    let rest = s
        .strip_prefix('x')
        .ok_or_else(|| format!("expected a literal, got {s:?}"))?;
    let (neg, digits) = match rest.strip_prefix('\u{304}') {
        Some(d) => (true, d),
        None => (false, rest),
    };
    let var: usize = digits.parse().map_err(|_| format!("bad literal {s:?}"))?;
    if var >= 64 {
        return Err(format!("variable index {var} out of range"));
    }
    Ok((var, neg))
}

/// Parses the algebraic rendering every form shares: `0` (no terms),
/// `1` (the empty product), terms joined by ` + ` or ` ⊕ `, factors by
/// `·`, EXOR factors parenthesized with `⊕` inside.
pub fn parse_form(text: &str) -> Result<ParsedForm, String> {
    let text = text.trim();
    if text == "0" {
        return Ok(ParsedForm {
            terms: Vec::new(),
            xor: false,
            literals: 0,
        });
    }
    let plus = split_top(text, '+');
    let oplus = split_top(text, '⊕');
    if plus.len() > 1 && oplus.len() > 1 {
        return Err("form mixes top-level + and ⊕".into());
    }
    let (xor, raw_terms) = if oplus.len() > 1 {
        (true, oplus)
    } else {
        (false, plus)
    };
    let mut terms = Vec::new();
    let mut literals = 0u64;
    for raw in raw_terms {
        let raw = raw.trim();
        let mut factors = Vec::new();
        if raw != "1" {
            for f in split_top(raw, '·') {
                let f = f.trim();
                let inner = match f.strip_prefix('(') {
                    Some(body) => body
                        .strip_suffix(')')
                        .ok_or_else(|| format!("unbalanced factor {f:?}"))?,
                    None => f,
                };
                let mut factor = Factor {
                    mask: 0,
                    parity: true,
                };
                for lit in inner.split('⊕') {
                    let (var, neg) = parse_literal(lit.trim())?;
                    if factor.mask >> var & 1 == 1 {
                        return Err(format!("variable x{var} repeats in factor {f:?}"));
                    }
                    factor.mask |= 1 << var;
                    factor.parity ^= neg;
                    literals += 1;
                }
                factors.push(factor);
            }
        }
        terms.push(factors);
    }
    Ok(ParsedForm {
        terms,
        xor,
        literals,
    })
}

/// Checks one returned output against its function: the form must agree
/// with the PLA on every ON and OFF point, and its recounted literals
/// must equal the reported `literals`.
pub fn check_output(truth: &Truth, form: &str, literals: u64) -> Result<(), String> {
    let parsed = parse_form(form)?;
    if parsed.literals() != literals {
        return Err(format!(
            "reported {literals} literals, the form has {}",
            parsed.literals()
        ));
    }
    let used = parsed.terms.iter().flatten().fold(0u64, |m, f| m | f.mask);
    if truth.n < 64 && used >> truth.n != 0 {
        return Err(format!("form uses a variable beyond x{}", truth.n - 1));
    }
    for p in 0..1usize << truth.n {
        if truth.dc[p] {
            continue;
        }
        if parsed.eval(p as u64) != truth.on[p] {
            let bits: String = (0..truth.n)
                .map(|i| if p >> i & 1 == 1 { '1' } else { '0' })
                .collect();
            return Err(format!("form disagrees with the PLA at point {bits}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spp_core::{ExecEnv, MinimizeMode, MinimizeRequest};

    const XOR3: &str = ".i 3\n.o 1\n.type fd\n100 1\n010 1\n001 1\n111 1\n.e\n";

    #[test]
    fn parses_every_rendering() {
        let f = parse_form("(x0⊕x̄1)·x4 + x̄4·x̄3").unwrap();
        assert_eq!((f.terms(), f.literals()), (2, 5));
        let e = parse_form("x0·x̄1 ⊕ x2 ⊕ 1").unwrap();
        assert_eq!((e.terms(), e.literals()), (3, 3));
        assert!(e.xor);
        assert_eq!(parse_form("0").unwrap().terms(), 0);
        assert!(parse_form("1").unwrap().eval(0));
        assert!(parse_form("y0").is_err());
    }

    #[test]
    fn accepts_a_real_answer_and_rejects_one_flipped_literal() {
        let truth = read_pla(XOR3).unwrap();
        let req = MinimizeRequest::new("t", XOR3).with_mode(MinimizeMode::Governed);
        let answer = spp_core::execute(&req, &ExecEnv::default())
            .unwrap()
            .response;
        let out = &answer.outputs[0];
        check_output(&truth, &out.form, out.literals).unwrap();

        // Flip the first literal's polarity: same literal count, wrong
        // function.
        let flipped = match out.form.find("x̄") {
            Some(i) => format!("{}x{}", &out.form[..i], &out.form[i + "x̄".len()..]),
            None => out.form.replacen('x', "x̄", 1),
        };
        assert_ne!(flipped, out.form);
        assert!(check_output(&truth, &flipped, out.literals).is_err());
        // A wrong literal count is rejected even when the form is right.
        assert!(check_output(&truth, &out.form, out.literals + 1).is_err());
    }

    #[test]
    fn dont_cares_are_free_and_esop_semantics_are_parity() {
        let truth = read_pla(".i 2\n.o 1\n.type fd\n11 1\n01 -\n.e\n").unwrap();
        check_output(&truth, "x1", 1).unwrap();
        check_output(&truth, "x0·x1", 2).unwrap();
        assert!(check_output(&truth, "x0", 1).is_err());
        // x0 ⊕ x1 is ON at 10 and 01 only.
        let xor = read_pla(".i 2\n.o 1\n.type fd\n10 1\n01 1\n.e\n").unwrap();
        check_output(&xor, "x0 ⊕ x1", 2).unwrap();
        assert!(check_output(&xor, "x0 + x1", 2).is_err());
    }
}
