//! Deterministic source mutation for negative-path testing: given a valid
//! MiniCU source, produce broken variants that must make the frontend
//! return a spanned error (or, occasionally, still parse) — never panic.

use proptest::TestRng;
use xplacer_lang::parser::MAX_DEPTH;

/// Characters likely to break lexing or parsing when spliced in.
const NOISE: &[char] = &[
    '(', ')', '{', '}', '[', ']', ';', '*', '&', '<', '>', '#', '"', '\'', '@', '$', '`', '%',
    '\\', '\u{7f}',
];

/// Apply one random mutation to `src`. Mutations operate on char
/// boundaries so the result is always valid UTF-8.
pub fn mutate(src: &str, rng: &mut TestRng) -> String {
    let chars: Vec<char> = src.chars().collect();
    if chars.is_empty() {
        return "@".to_string();
    }
    let pos = rng.below(chars.len() as u64) as usize;
    match rng.below(6) {
        // Truncate: unterminated constructs.
        0 => chars[..pos].iter().collect(),
        // Delete a span.
        1 => {
            let len = 1 + rng.below(8) as usize;
            let end = (pos + len).min(chars.len());
            chars[..pos].iter().chain(&chars[end..]).collect()
        }
        // Duplicate a span.
        2 => {
            let len = 1 + rng.below(8) as usize;
            let end = (pos + len).min(chars.len());
            let mut out: Vec<char> = chars[..end].to_vec();
            out.extend(&chars[pos..end]);
            out.extend(&chars[end..]);
            out.into_iter().collect()
        }
        // Replace one char with noise.
        3 => {
            let mut out = chars.clone();
            out[pos] = NOISE[rng.below(NOISE.len() as u64) as usize];
            out.into_iter().collect()
        }
        // Insert a noise char.
        4 => {
            let mut out = chars.clone();
            out.insert(pos, NOISE[rng.below(NOISE.len() as u64) as usize]);
            out.into_iter().collect()
        }
        // Swap two chars.
        _ => {
            let q = rng.below(chars.len() as u64) as usize;
            let mut out = chars.clone();
            out.swap(pos, q);
            out.into_iter().collect()
        }
    }
}

/// Apply 1..=3 stacked mutations.
pub fn mutate_some(src: &str, rng: &mut TestRng) -> String {
    let mut out = src.to_string();
    for _ in 0..1 + rng.below(3) {
        out = mutate(&out, rng);
    }
    out
}

/// Apply one hostile mutation: a depth bomb (k× `(`…`)` around the right
/// side of an `=`, or k× `{`…`}` around a statement, with k past
/// [`MAX_DEPTH`]) or an identifier of about 1 MiB. A stack overflow is
/// not a panic, so only inputs like these show whether the frontend
/// bounds its recursion. Kept apart from [`mutate`] so a test can feed
/// every seed a fixed number of them.
pub fn hostile(src: &str, rng: &mut TestRng) -> String {
    let k = MAX_DEPTH + 1 + rng.below(20_000) as usize;
    // Every cut point is an ASCII byte, so all slices fall on char
    // boundaries.
    let wrap = |(start, end): (usize, usize), open: &str, close: &str| {
        let (head, body, tail) = (&src[..start], &src[start..end], &src[end..]);
        format!("{head}{}{body}{}{tail}", open.repeat(k), close.repeat(k))
    };
    let semis: Vec<usize> = src.match_indices(';').map(|(i, _)| i).collect();
    match rng.below(3) {
        0 => {
            // `x = e;` → `x = ((…(e)…));`
            let bytes = src.as_bytes();
            let rhs: Vec<(usize, usize)> = src
                .match_indices('=')
                .filter_map(|(i, _)| {
                    let comparison = i == 0
                        || b"=!<>".contains(&bytes[i - 1])
                        || bytes.get(i + 1) == Some(&b'=');
                    let end = i + 1 + src[i + 1..].find(';')?;
                    (!comparison).then_some((i + 1, end))
                })
                .collect();
            wrap(pick(rng, &rhs).unwrap_or((0, src.len())), "(", ")")
        }
        1 => {
            // `s;` → `{{…{s;}…}}`, the statement starting after the last
            // `;`, `{` or `}` before its end.
            let stmt = pick(rng, &semis).map(|semi| {
                let start = src[..semi].rfind([';', '{', '}']).map_or(0, |i| i + 1);
                (start, semi + 1)
            });
            wrap(stmt.unwrap_or((0, src.len())), "{", "}")
        }
        _ => {
            let at = pick(rng, &semis).map_or(0, |i| i + 1);
            let name = "x".repeat(1 << 20);
            format!("{} {name} = 0;{}", &src[..at], &src[at..])
        }
    }
}

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> Option<T> {
    (!items.is_empty()).then(|| items[rng.below(items.len() as u64) as usize])
}
