//! Hand-rolled lexer, parser and validator for `.campaign` files.
//!
//! The format is line-oriented. `#` starts a comment, blank lines are
//! ignored, and every other line is one directive:
//!
//! ```text
//! campaign <name>                  # must come first
//! seed <u64>                       # decimal or 0x-hex
//! fault_seed <u64>
//! train <n>
//! test <n>
//! axis <name> = <v1>, <v2>, ...    # materials | environment | distance_cm
//!                                  # | container | diameter_cm | packets
//!                                  # | intensity | replica
//! at <trial> fault <intensity>     # scheduled condition changes,
//! at <trial> environment <env>     # applied from test trial <trial> on
//! at <trial> target present|swapped|removed
//! at <trial> dropout <p>
//! ```
//!
//! Every error carries a 1-based line and column plus a [`DiagKind`] so
//! the fixture suite can pin exact diagnostics; the rendered message is
//! always a single line (no `\n`), mirroring the `artifact validate`
//! conventions.

use std::fmt;

use wimi_phy::channel::Environment;
use wimi_phy::material::{ContainerMaterial, Liquid};

use crate::ast::{Campaign, MaterialRef, MaterialSet, ScheduleChange, ScheduleEntry, TargetMode};

/// Hard cap on the number of cells a campaign may expand to, so a typo in
/// an axis list cannot turn `campaign-run` into a runaway job.
pub const MAX_CELLS: usize = 100_000;

/// Every class of diagnostic the parser/validator can emit. The fixture
/// suite iterates [`DiagKind::ALL`] and proves each one is reachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagKind {
    /// Malformed line structure (missing `=`, trailing tokens, ...).
    Syntax,
    /// A token that should be a number but does not parse as one.
    Number,
    /// An unknown top-level directive keyword.
    UnknownDirective,
    /// A scalar directive (`seed`, `train`, ...) given more than once.
    DuplicateDirective,
    /// The file does not start with a valid `campaign <name>` line.
    MissingName,
    /// `axis <name>` with a name that is not a grid axis.
    UnknownAxis,
    /// The same axis declared twice.
    DuplicateAxis,
    /// An axis declared with no values.
    EmptyAxis,
    /// A material token that is neither a catalog liquid, `paper10`, nor
    /// a `salt<pct>` grade.
    UnknownMaterial,
    /// The same material listed twice in one set.
    DuplicateMaterial,
    /// A material set with fewer than two classes.
    MaterialSetTooSmall,
    /// An environment token that is not `hall`/`lab`/`library`.
    UnknownEnvironment,
    /// A container token that is not `glass`/`plastic`/`metal`.
    UnknownContainer,
    /// A numeric value outside its documented range.
    OutOfRange,
    /// Schedule entries out of trial order, or the same change kind
    /// scheduled twice at one trial.
    ScheduleOrder,
    /// A schedule trial at or beyond the campaign's test-trial count.
    ScheduleRange,
    /// An unknown schedule directive or target mode.
    UnknownSchedule,
}

impl DiagKind {
    /// All diagnostic kinds (fixture-coverage contract).
    pub const ALL: [DiagKind; 17] = [
        DiagKind::Syntax,
        DiagKind::Number,
        DiagKind::UnknownDirective,
        DiagKind::DuplicateDirective,
        DiagKind::MissingName,
        DiagKind::UnknownAxis,
        DiagKind::DuplicateAxis,
        DiagKind::EmptyAxis,
        DiagKind::UnknownMaterial,
        DiagKind::DuplicateMaterial,
        DiagKind::MaterialSetTooSmall,
        DiagKind::UnknownEnvironment,
        DiagKind::UnknownContainer,
        DiagKind::OutOfRange,
        DiagKind::ScheduleOrder,
        DiagKind::ScheduleRange,
        DiagKind::UnknownSchedule,
    ];

    /// Stable kebab-case name, used in fixture expectations.
    pub fn name(self) -> &'static str {
        match self {
            DiagKind::Syntax => "syntax",
            DiagKind::Number => "number",
            DiagKind::UnknownDirective => "unknown-directive",
            DiagKind::DuplicateDirective => "duplicate-directive",
            DiagKind::MissingName => "missing-name",
            DiagKind::UnknownAxis => "unknown-axis",
            DiagKind::DuplicateAxis => "duplicate-axis",
            DiagKind::EmptyAxis => "empty-axis",
            DiagKind::UnknownMaterial => "unknown-material",
            DiagKind::DuplicateMaterial => "duplicate-material",
            DiagKind::MaterialSetTooSmall => "material-set-too-small",
            DiagKind::UnknownEnvironment => "unknown-environment",
            DiagKind::UnknownContainer => "unknown-container",
            DiagKind::OutOfRange => "out-of-range",
            DiagKind::ScheduleOrder => "schedule-order",
            DiagKind::ScheduleRange => "schedule-range",
            DiagKind::UnknownSchedule => "unknown-schedule",
        }
    }
}

/// A parse/validation failure at an exact source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// The diagnostic class.
    pub kind: DiagKind,
    /// Single-line human-readable detail.
    pub msg: String,
}

impl fmt::Display for CampaignError {
    /// `line <l>, col <c>: <msg>` — always a single line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, col {}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for CampaignError {}

fn err(line: usize, col: usize, kind: DiagKind, msg: String) -> CampaignError {
    CampaignError {
        line,
        col,
        kind,
        msg,
    }
}

/// One lexed token: a word or a punctuation mark, with its position.
#[derive(Debug, Clone, PartialEq)]
struct Token {
    line: usize,
    col: usize,
    text: String,
    punct: bool,
}

/// Splits one line into word and punctuation (`=`, `,`, `+`) tokens.
/// `#` cuts the rest of the line. Words are maximal runs of any other
/// non-whitespace characters; bad content inside a word is diagnosed at
/// value-parse time, never here, so lexing cannot fail.
fn lex_line(line_no: usize, line: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    let mut word = String::new();
    let mut word_col = 0usize;
    let flush = |word: &mut String, word_col: usize, tokens: &mut Vec<Token>| {
        if !word.is_empty() {
            tokens.push(Token {
                line: line_no,
                col: word_col,
                text: std::mem::take(word),
                punct: false,
            });
        }
    };
    for (i, c) in line.chars().enumerate() {
        let col = i + 1;
        match c {
            '#' => break,
            c if c.is_whitespace() => flush(&mut word, word_col, &mut tokens),
            '=' | ',' | '+' => {
                flush(&mut word, word_col, &mut tokens);
                tokens.push(Token {
                    line: line_no,
                    col,
                    text: c.to_string(),
                    punct: true,
                });
            }
            c => {
                if word.is_empty() {
                    word_col = col;
                }
                word.push(c);
            }
        }
    }
    flush(&mut word, word_col, &mut tokens);
    tokens
}

fn parse_u64(tok: &Token) -> Result<u64, CampaignError> {
    let parsed = match tok.text.strip_prefix("0x").or(tok.text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => tok.text.parse::<u64>(),
    };
    parsed.map_err(|_| {
        err(
            tok.line,
            tok.col,
            DiagKind::Number,
            format!("`{}` is not a non-negative integer", tok.text),
        )
    })
}

fn parse_usize(tok: &Token) -> Result<usize, CampaignError> {
    let value = parse_u64(tok)?;
    usize::try_from(value).map_err(|_| {
        err(
            tok.line,
            tok.col,
            DiagKind::Number,
            format!("`{}` does not fit in usize", tok.text),
        )
    })
}

fn parse_f64(tok: &Token) -> Result<f64, CampaignError> {
    // `f64::from_str` accepts "inf"/"NaN"; reject non-finite here so no
    // downstream range check has to reason about them.
    match tok.text.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err(err(
            tok.line,
            tok.col,
            DiagKind::Number,
            format!("`{}` is not a finite number", tok.text),
        )),
    }
}

/// Checks `value` against an inclusive range, with an [`DiagKind::OutOfRange`]
/// diagnostic naming the quantity and its bounds.
fn check_range(tok: &Token, what: &str, value: f64, lo: f64, hi: f64) -> Result<(), CampaignError> {
    if (lo..=hi).contains(&value) {
        Ok(())
    } else {
        Err(err(
            tok.line,
            tok.col,
            DiagKind::OutOfRange,
            format!("{what} must be within [{lo}, {hi}], got {}", tok.text),
        ))
    }
}

fn material_ref(tok: &Token) -> Result<MaterialRef, CampaignError> {
    if let Some(pct_text) = tok.text.strip_prefix("salt") {
        let pct_tok = Token {
            line: tok.line,
            col: tok.col + 4,
            text: pct_text.to_owned(),
            punct: false,
        };
        let pct = parse_f64(&pct_tok).map_err(|e| {
            err(
                e.line,
                e.col,
                DiagKind::UnknownMaterial,
                format!(
                    "`{}` is not a saltwater grade (expected salt<pct>)",
                    tok.text
                ),
            )
        })?;
        check_range(tok, "saltwater concentration (g/100ml)", pct, 0.0, 30.0)?;
        return Ok(MaterialRef::Saltwater(pct));
    }
    let liquid = match tok.text.as_str() {
        "Vinegar" => Liquid::Vinegar,
        "Honey" => Liquid::Honey,
        "Soy" => Liquid::Soy,
        "Milk" => Liquid::Milk,
        "Pepsi" => Liquid::Pepsi,
        "Liquor" => Liquid::Liquor,
        "PureWater" => Liquid::PureWater,
        "Oil" => Liquid::Oil,
        "Coke" => Liquid::Coke,
        "SweetWater" => Liquid::SweetWater,
        other => {
            return Err(err(
                tok.line,
                tok.col,
                DiagKind::UnknownMaterial,
                format!("unknown material `{other}` (catalog liquids, salt<pct>, or paper10)"),
            ))
        }
    };
    Ok(MaterialRef::Catalog(liquid))
}

fn environment_value(tok: &Token) -> Result<Environment, CampaignError> {
    match tok.text.as_str() {
        "hall" => Ok(Environment::EmptyHall),
        "lab" => Ok(Environment::Lab),
        "library" => Ok(Environment::Library),
        other => Err(err(
            tok.line,
            tok.col,
            DiagKind::UnknownEnvironment,
            format!("unknown environment `{other}` (expected hall, lab or library)"),
        )),
    }
}

fn container_value(tok: &Token) -> Result<ContainerMaterial, CampaignError> {
    match tok.text.as_str() {
        "glass" => Ok(ContainerMaterial::Glass),
        "plastic" => Ok(ContainerMaterial::Plastic),
        "metal" => Ok(ContainerMaterial::Metal),
        other => Err(err(
            tok.line,
            tok.col,
            DiagKind::UnknownContainer,
            format!("unknown container `{other}` (expected glass, plastic or metal)"),
        )),
    }
}

/// Splits the value tokens of an axis line (everything after `=`) into
/// comma-separated groups, rejecting empty slots.
fn comma_groups(tokens: &[Token]) -> Result<Vec<Vec<&Token>>, CampaignError> {
    let mut groups: Vec<Vec<&Token>> = vec![Vec::new()];
    for tok in tokens {
        if tok.punct && tok.text == "," {
            match groups.last() {
                Some(last) if last.is_empty() => {
                    return Err(err(
                        tok.line,
                        tok.col,
                        DiagKind::Syntax,
                        "empty value before `,`".to_owned(),
                    ))
                }
                _ => groups.push(Vec::new()),
            }
        } else {
            if let Some(last) = groups.last_mut() {
                last.push(tok);
            }
        }
    }
    if let Some(last) = groups.last() {
        if last.is_empty() && groups.len() > 1 {
            // Trailing comma: report at the end of the line via the last
            // real token's position.
            if let Some(tok) = tokens.last() {
                return Err(err(
                    tok.line,
                    tok.col,
                    DiagKind::Syntax,
                    "trailing `,` with no value after it".to_owned(),
                ));
            }
        }
    }
    if groups.len() == 1 && groups.first().is_none_or(|g| g.is_empty()) {
        groups.clear();
    }
    Ok(groups)
}

/// Parses one group as a single word token (no stray `+`/`=`).
fn single_word<'a>(
    group: &[&'a Token],
    line: usize,
    what: &str,
) -> Result<&'a Token, CampaignError> {
    match group {
        [tok] if !tok.punct => Ok(tok),
        [tok, ..] => Err(err(
            tok.line,
            tok.col,
            DiagKind::Syntax,
            format!("expected a single {what} value"),
        )),
        [] => Err(err(
            line,
            1,
            DiagKind::Syntax,
            format!("expected a {what} value"),
        )),
    }
}

fn material_set(group: &[&Token], line: usize) -> Result<MaterialSet, CampaignError> {
    if let [tok] = group {
        if !tok.punct && tok.text == "paper10" {
            return Ok(MaterialSet::Paper10);
        }
    }
    // Alternating word / `+` sequence.
    let mut refs: Vec<MaterialRef> = Vec::new();
    let mut expect_word = true;
    for tok in group {
        if expect_word {
            if tok.punct {
                return Err(err(
                    tok.line,
                    tok.col,
                    DiagKind::Syntax,
                    format!("expected a material name, got `{}`", tok.text),
                ));
            }
            let mref = material_ref(tok)?;
            if refs.contains(&mref) {
                return Err(err(
                    tok.line,
                    tok.col,
                    DiagKind::DuplicateMaterial,
                    format!("material `{}` listed twice in one set", tok.text),
                ));
            }
            refs.push(mref);
        } else if !(tok.punct && tok.text == "+") {
            return Err(err(
                tok.line,
                tok.col,
                DiagKind::Syntax,
                format!("expected `+` between materials, got `{}`", tok.text),
            ));
        }
        expect_word = !expect_word;
    }
    if expect_word {
        // Ended on a `+`.
        let col = group.last().map_or(1, |t| t.col);
        return Err(err(
            line,
            col,
            DiagKind::Syntax,
            "material set ends with `+`".to_owned(),
        ));
    }
    if refs.len() < 2 {
        let col = group.first().map_or(1, |t| t.col);
        return Err(err(
            line,
            col,
            DiagKind::MaterialSetTooSmall,
            format!(
                "a material set needs at least two classes to discriminate, got {}",
                refs.len()
            ),
        ));
    }
    Ok(MaterialSet::List(refs))
}

/// Internal parse state: which directives/axes have been seen, for
/// duplicate detection.
#[derive(Default)]
struct Seen {
    seed: bool,
    fault_seed: bool,
    train: bool,
    test: bool,
    materials: bool,
    environment: bool,
    distance: bool,
    container: bool,
    diameter: bool,
    packets: bool,
    intensity: bool,
    replica: bool,
}

/// Parses and validates campaign text into a [`Campaign`].
///
/// Omitted directives take their documented defaults; the returned AST is
/// always fully concrete. The first error encountered (scanning top to
/// bottom, left to right) is returned.
///
/// # Errors
///
/// A [`CampaignError`] with the 1-based line/column of the offending
/// token, a [`DiagKind`], and a single-line message.
pub fn parse(text: &str) -> Result<Campaign, CampaignError> {
    let mut campaign: Option<Campaign> = None;
    let mut seen = Seen::default();
    let mut last_schedule: Option<(usize, u8)> = None;

    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let tokens = lex_line(line_no, raw_line);
        let Some(head) = tokens.first() else {
            continue; // blank or comment-only line
        };
        if head.punct {
            return Err(err(
                head.line,
                head.col,
                DiagKind::Syntax,
                format!("a directive cannot start with `{}`", head.text),
            ));
        }
        // The first directive must name the campaign.
        let Some(c) = campaign.as_mut() else {
            if head.text != "campaign" {
                return Err(err(
                    head.line,
                    head.col,
                    DiagKind::MissingName,
                    "the first directive must be `campaign <name>`".to_owned(),
                ));
            }
            let name_tok = match &tokens[1..] {
                [tok] if !tok.punct => tok,
                [tok, ..] => {
                    return Err(err(
                        tok.line,
                        tok.col,
                        DiagKind::MissingName,
                        "`campaign` takes exactly one name".to_owned(),
                    ))
                }
                [] => {
                    return Err(err(
                        head.line,
                        head.col + head.text.chars().count(),
                        DiagKind::MissingName,
                        "`campaign` needs a name".to_owned(),
                    ))
                }
            };
            let ok_name = !name_tok.text.is_empty()
                && name_tok
                    .text
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
            if !ok_name {
                return Err(err(
                    name_tok.line,
                    name_tok.col,
                    DiagKind::MissingName,
                    format!(
                        "campaign name `{}` may only contain [A-Za-z0-9_-]",
                        name_tok.text
                    ),
                ));
            }
            campaign = Some(Campaign::with_defaults(&name_tok.text));
            continue;
        };

        match head.text.as_str() {
            "campaign" => {
                return Err(err(
                    head.line,
                    head.col,
                    DiagKind::DuplicateDirective,
                    "`campaign` may only appear once, as the first directive".to_owned(),
                ))
            }
            "seed" | "fault_seed" | "train" | "test" => {
                let dup = match head.text.as_str() {
                    "seed" => std::mem::replace(&mut seen.seed, true),
                    "fault_seed" => std::mem::replace(&mut seen.fault_seed, true),
                    "train" => std::mem::replace(&mut seen.train, true),
                    _ => std::mem::replace(&mut seen.test, true),
                };
                if dup {
                    return Err(err(
                        head.line,
                        head.col,
                        DiagKind::DuplicateDirective,
                        format!("`{}` given more than once", head.text),
                    ));
                }
                let value_tok = match &tokens[1..] {
                    [tok] if !tok.punct => tok,
                    [tok, ..] => {
                        return Err(err(
                            tok.line,
                            tok.col,
                            DiagKind::Syntax,
                            format!("`{}` takes exactly one value", head.text),
                        ))
                    }
                    [] => {
                        return Err(err(
                            head.line,
                            head.col + head.text.chars().count(),
                            DiagKind::Syntax,
                            format!("`{}` needs a value", head.text),
                        ))
                    }
                };
                match head.text.as_str() {
                    "seed" => c.seed = parse_u64(value_tok)?,
                    "fault_seed" => c.fault_seed = parse_u64(value_tok)?,
                    "train" => {
                        let n = parse_usize(value_tok)?;
                        check_range(value_tok, "train trials", n as f64, 1.0, 1000.0)?;
                        c.train = n;
                    }
                    _ => {
                        let n = parse_usize(value_tok)?;
                        check_range(value_tok, "test trials", n as f64, 1.0, 1000.0)?;
                        c.test = n;
                    }
                }
            }
            "axis" => {
                let (name_tok, rest) = match &tokens[1..] {
                    [name, rest @ ..] if !name.punct => (name, rest),
                    _ => {
                        return Err(err(
                            head.line,
                            head.col + 4,
                            DiagKind::Syntax,
                            "`axis` needs a name, `=`, and values".to_owned(),
                        ))
                    }
                };
                let value_tokens = match rest {
                    [eq, values @ ..] if eq.punct && eq.text == "=" => values,
                    [tok, ..] => {
                        return Err(err(
                            tok.line,
                            tok.col,
                            DiagKind::Syntax,
                            format!("expected `=` after the axis name, got `{}`", tok.text),
                        ))
                    }
                    [] => {
                        return Err(err(
                            name_tok.line,
                            name_tok.col + name_tok.text.chars().count(),
                            DiagKind::Syntax,
                            "expected `=` after the axis name".to_owned(),
                        ))
                    }
                };
                let groups = comma_groups(value_tokens)?;
                if groups.is_empty() {
                    return Err(err(
                        name_tok.line,
                        name_tok.col,
                        DiagKind::EmptyAxis,
                        format!("axis `{}` has no values", name_tok.text),
                    ));
                }
                parse_axis(c, &mut seen, name_tok, &groups)?;
            }
            "at" => {
                let entry = parse_schedule_entry(head, &tokens[1..])?;
                let key = (entry.at, entry.change.kind_rank());
                if let Some((last_at, last_rank)) = last_schedule {
                    if entry.at < last_at {
                        return Err(err(
                            head.line,
                            head.col,
                            DiagKind::ScheduleOrder,
                            format!(
                                "schedule entries must be ordered by trial ({} after {last_at})",
                                entry.at
                            ),
                        ));
                    }
                    if (last_at, last_rank) == key
                        || c.schedule.iter().any(|e| {
                            e.at == entry.at && e.change.kind_rank() == entry.change.kind_rank()
                        })
                    {
                        return Err(err(
                            head.line,
                            head.col,
                            DiagKind::ScheduleOrder,
                            format!(
                                "`{}` scheduled twice at trial {}",
                                entry.change.keyword(),
                                entry.at
                            ),
                        ));
                    }
                }
                last_schedule = Some(key);
                c.schedule.push(entry);
            }
            other => {
                return Err(err(
                    head.line,
                    head.col,
                    DiagKind::UnknownDirective,
                    format!(
                        "unknown directive `{other}` (campaign, seed, fault_seed, train, test, axis, at)"
                    ),
                ))
            }
        }
    }

    let Some(campaign) = campaign else {
        return Err(err(
            1,
            1,
            DiagKind::MissingName,
            "empty campaign: the first directive must be `campaign <name>`".to_owned(),
        ));
    };
    finish_validate(&campaign, text)?;
    Ok(campaign)
}

/// Parses one `axis <name> = ...` directive into the grid.
fn parse_axis(
    c: &mut Campaign,
    seen: &mut Seen,
    name_tok: &Token,
    groups: &[Vec<&Token>],
) -> Result<(), CampaignError> {
    let dup = |seen: &mut bool| std::mem::replace(seen, true);
    let line = name_tok.line;
    let duplicated = match name_tok.text.as_str() {
        "materials" => dup(&mut seen.materials),
        "environment" => dup(&mut seen.environment),
        "distance_cm" => dup(&mut seen.distance),
        "container" => dup(&mut seen.container),
        "diameter_cm" => dup(&mut seen.diameter),
        "packets" => dup(&mut seen.packets),
        "intensity" => dup(&mut seen.intensity),
        "replica" => dup(&mut seen.replica),
        other => {
            return Err(err(
                name_tok.line,
                name_tok.col,
                DiagKind::UnknownAxis,
                format!(
                    "unknown axis `{other}` (materials, environment, distance_cm, container, \
                     diameter_cm, packets, intensity, replica)"
                ),
            ))
        }
    };
    if duplicated {
        return Err(err(
            name_tok.line,
            name_tok.col,
            DiagKind::DuplicateAxis,
            format!("axis `{}` declared twice", name_tok.text),
        ));
    }
    match name_tok.text.as_str() {
        "materials" => {
            let mut sets = Vec::new();
            for group in groups {
                sets.push(material_set(group, line)?);
            }
            c.axes.materials = sets;
        }
        "environment" => {
            let mut envs = Vec::new();
            for group in groups {
                envs.push(environment_value(single_word(group, line, "environment")?)?);
            }
            c.axes.environments = envs;
        }
        "distance_cm" => {
            let mut values = Vec::new();
            for group in groups {
                let tok = single_word(group, line, "distance")?;
                let v = parse_f64(tok)?;
                check_range(tok, "distance_cm", v, 10.0, 10_000.0)?;
                values.push(v);
            }
            c.axes.distances_cm = values;
        }
        "container" => {
            let mut values = Vec::new();
            for group in groups {
                values.push(container_value(single_word(group, line, "container")?)?);
            }
            c.axes.containers = values;
        }
        "diameter_cm" => {
            let mut values = Vec::new();
            for group in groups {
                let tok = single_word(group, line, "diameter")?;
                let v = parse_f64(tok)?;
                check_range(tok, "diameter_cm", v, 1.0, 100.0)?;
                values.push(v);
            }
            c.axes.diameters_cm = values;
        }
        "packets" => {
            let mut values = Vec::new();
            for group in groups {
                let tok = single_word(group, line, "packets")?;
                let n = parse_usize(tok)?;
                check_range(tok, "packets", n as f64, 1.0, 1000.0)?;
                values.push(n);
            }
            c.axes.packets = values;
        }
        "intensity" => {
            let mut values = Vec::new();
            for group in groups {
                let tok = single_word(group, line, "intensity")?;
                let v = parse_f64(tok)?;
                check_range(tok, "intensity", v, 0.0, 10.0)?;
                values.push(v);
            }
            c.axes.intensities = values;
        }
        "replica" => {
            let mut values = Vec::new();
            for group in groups {
                values.push(parse_u64(single_word(group, line, "replica")?)?);
            }
            c.axes.replicas = values;
        }
        _ => {}
    }
    Ok(())
}

/// Parses the tail of an `at <trial> <directive> <arg>` line.
fn parse_schedule_entry(head: &Token, rest: &[Token]) -> Result<ScheduleEntry, CampaignError> {
    let (trial_tok, dir_tok, args) = match rest {
        [trial, dir, args @ ..] if !trial.punct && !dir.punct => (trial, dir, args),
        [tok, ..] => {
            return Err(err(
                tok.line,
                tok.col,
                DiagKind::Syntax,
                "`at` takes a trial number and a directive".to_owned(),
            ))
        }
        [] => {
            return Err(err(
                head.line,
                head.col + 2,
                DiagKind::Syntax,
                "`at` takes a trial number and a directive".to_owned(),
            ))
        }
    };
    let at = parse_usize(trial_tok)?;
    let arg = |what: &str| -> Result<&Token, CampaignError> {
        match args {
            [tok] if !tok.punct => Ok(tok),
            [tok, ..] => Err(err(
                tok.line,
                tok.col,
                DiagKind::Syntax,
                format!("`{}` takes exactly one {what}", dir_tok.text),
            )),
            [] => Err(err(
                dir_tok.line,
                dir_tok.col + dir_tok.text.chars().count(),
                DiagKind::Syntax,
                format!("`{}` needs a {what}", dir_tok.text),
            )),
        }
    };
    let change = match dir_tok.text.as_str() {
        "fault" => {
            let tok = arg("intensity")?;
            let v = parse_f64(tok)?;
            check_range(tok, "fault intensity", v, 0.0, 10.0)?;
            ScheduleChange::Fault(v)
        }
        "environment" => ScheduleChange::Environment(environment_value(arg("environment")?)?),
        "target" => {
            let tok = arg("mode")?;
            let mode = match tok.text.as_str() {
                "present" => TargetMode::Present,
                "swapped" => TargetMode::Swapped,
                "removed" => TargetMode::Removed,
                other => {
                    return Err(err(
                        tok.line,
                        tok.col,
                        DiagKind::UnknownSchedule,
                        format!(
                            "unknown target mode `{other}` (expected present, swapped or removed)"
                        ),
                    ))
                }
            };
            ScheduleChange::Target(mode)
        }
        "dropout" => {
            let tok = arg("probability")?;
            let v = parse_f64(tok)?;
            check_range(tok, "dropout probability", v, 0.0, 1.0)?;
            ScheduleChange::Dropout(v)
        }
        other => {
            return Err(err(
                dir_tok.line,
                dir_tok.col,
                DiagKind::UnknownSchedule,
                format!(
                    "unknown schedule directive `{other}` (fault, environment, target, dropout)"
                ),
            ))
        }
    };
    Ok(ScheduleEntry { at, change })
}

/// Cross-directive validation that needs the whole campaign: schedule
/// trials vs the test count, and the expansion-size cap.
fn finish_validate(c: &Campaign, text: &str) -> Result<(), CampaignError> {
    for entry in &c.schedule {
        if entry.at >= c.test {
            // Re-locate the entry's line for a precise diagnostic.
            let (line, col) = locate_schedule_line(text, entry.at, entry.change.keyword());
            return Err(err(
                line,
                col,
                DiagKind::ScheduleRange,
                format!(
                    "schedule trial {} is outside the campaign's {} test trials (0..{})",
                    entry.at, c.test, c.test
                ),
            ));
        }
    }
    let cells = crate::grid::cell_count(c);
    if cells > MAX_CELLS {
        return Err(err(
            1,
            1,
            DiagKind::OutOfRange,
            format!("campaign expands to {cells} cells, more than the {MAX_CELLS} cap"),
        ));
    }
    Ok(())
}

/// Finds the source position of the `at <trial> <keyword>` line for the
/// [`DiagKind::ScheduleRange`] diagnostic (best-effort: falls back to 1:1).
fn locate_schedule_line(text: &str, at: usize, keyword: &str) -> (usize, usize) {
    for (idx, raw_line) in text.lines().enumerate() {
        let tokens = lex_line(idx + 1, raw_line);
        if let [head, trial, dir, ..] = tokens.as_slice() {
            if head.text == "at" && trial.text == at.to_string() && dir.text == keyword {
                return (idx + 1, trial.col);
            }
        }
    }
    (1, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Axes, DEFAULT_FAULT_SEED, DEFAULT_SEED, DEFAULT_TEST, DEFAULT_TRAIN};

    #[test]
    fn minimal_campaign_parses_with_defaults() {
        let c = parse("campaign tiny\n").unwrap();
        assert_eq!(c.name, "tiny");
        assert_eq!(c.seed, DEFAULT_SEED);
        assert_eq!(c.fault_seed, DEFAULT_FAULT_SEED);
        assert_eq!(c.train, DEFAULT_TRAIN);
        assert_eq!(c.test, DEFAULT_TEST);
        assert_eq!(c.axes, Axes::default());
        assert!(c.schedule.is_empty());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# header comment\n\ncampaign demo  # trailing comment\n\nseed 7\n";
        let c = parse(text).unwrap();
        assert_eq!(c.name, "demo");
        assert_eq!(c.seed, 7);
    }

    #[test]
    fn hex_seeds_parse() {
        let c = parse("campaign h\nseed 0xACC0\nfault_seed 0xFA17\n").unwrap();
        assert_eq!(c.seed, 0xACC0);
        assert_eq!(c.fault_seed, 0xFA17);
    }

    #[test]
    fn full_grid_and_schedule_parse() {
        let text = "campaign full\nseed 1\ntrain 2\ntest 4\n\
                    axis materials = Vinegar+Milk, paper10, salt1.5+salt3\n\
                    axis environment = hall, lab\n\
                    axis distance_cm = 150, 200\n\
                    axis container = plastic, glass\n\
                    axis diameter_cm = 14.3\n\
                    axis packets = 12\n\
                    axis intensity = 0, 0.2\n\
                    axis replica = 0, 1\n\
                    at 0 fault 0.1\nat 2 environment library\nat 2 target removed\nat 3 dropout 0.5\n";
        let c = parse(text).unwrap();
        assert_eq!(c.axes.materials.len(), 3);
        assert_eq!(c.axes.materials[1], MaterialSet::Paper10);
        assert_eq!(
            c.axes.environments,
            vec![Environment::EmptyHall, Environment::Lab]
        );
        assert_eq!(c.axes.containers.len(), 2);
        assert_eq!(c.schedule.len(), 4);
        assert_eq!(c.schedule[0].at, 0);
        assert_eq!(c.schedule[3].change, ScheduleChange::Dropout(0.5));
    }

    #[test]
    fn first_error_wins_with_position() {
        let e = parse("campaign x\naxis distance_cm = 150, -4\n").unwrap_err();
        assert_eq!(e.kind, DiagKind::OutOfRange);
        assert_eq!(e.line, 2);
        assert_eq!(e.col, 25);
        assert!(!e.to_string().contains('\n'));
    }

    #[test]
    fn schedule_must_stay_inside_test_trials() {
        let e = parse("campaign x\ntest 3\nat 3 fault 0.5\n").unwrap_err();
        assert_eq!(e.kind, DiagKind::ScheduleRange);
        assert_eq!(e.line, 3);
    }

    #[test]
    fn error_display_is_single_line() {
        for text in [
            "",
            "seed 4\n",
            "campaign x\nseed beef\n",
            "campaign x\naxis moon = 1\n",
            "campaign x\naxis materials = Vinegar\n",
            "campaign x\nat 0 explode 1\n",
        ] {
            let e = parse(text).unwrap_err();
            let msg = e.to_string();
            assert!(!msg.contains('\n'), "{msg}");
            assert!(msg.starts_with("line "), "{msg}");
        }
    }
}
