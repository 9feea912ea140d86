//! `lint.toml` parsing: which rule groups run where, what to exclude
//! from the walk, and the mirror/layout pins to cross-check.
//!
//! The parser is a deliberately tiny TOML subset — `[section]`,
//! `[[array-of-tables]]`, quoted section suffixes (`[crate."path"]`),
//! and `key = "string" | integer | ["array", "of", "strings"]` — enough
//! for our own files, not a general implementation (the workspace builds
//! offline, with no `toml` crate). Unknown keys are errors, so a typo in
//! `lint.toml` fails loudly instead of silently disabling a rule.

use crate::rules;

/// One `[[mirror]]` pin: two constants (each `path/to/file.rs#CONST`)
/// that must resolve to the same integer value.
#[derive(Debug, Clone)]
pub struct MirrorPin {
    /// Finding ID, e.g. `MIRROR-DCRA-WINDOW`.
    pub id: String,
    /// `(file, const_name)` of the mirror side (e.g. smt-workloads).
    pub left: (String, String),
    /// `(file, const_name)` of the source-of-truth side (e.g. knobs.rs).
    pub right: (String, String),
    /// Extra files the resolver may chase `Path::CONST` references into.
    pub search: Vec<String>,
}

/// One `[[layout]]` pin: a packed struct whose computed size must not
/// exceed `max_bytes`.
#[derive(Debug, Clone)]
pub struct LayoutPin {
    /// Finding ID, e.g. `LAYOUT-PACKED-INST`.
    pub id: String,
    /// File holding the struct definition.
    pub file: String,
    /// Struct name.
    pub name: String,
    /// Size budget in bytes.
    pub max_bytes: u64,
}

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Groups for crates with no `[crate."…"]` entry — new crates opt
    /// in to whatever this says by default.
    pub default_groups: Vec<String>,
    /// Per-crate-directory overrides, longest prefix wins.
    pub crate_groups: Vec<(String, Vec<String>)>,
    /// Per-file overrides, exact match, beats crate overrides.
    pub file_groups: Vec<(String, Vec<String>)>,
    /// Path prefixes excluded from the walk (fixtures, generated code).
    pub exclude: Vec<String>,
    /// Mirror-constant pins.
    pub mirrors: Vec<MirrorPin>,
    /// Packed-layout pins.
    pub layouts: Vec<LayoutPin>,
}

impl LintConfig {
    /// Resolves the rule groups for a repo-relative file path.
    pub fn groups_for(&self, file: &str) -> &[String] {
        if let Some((_, g)) = self.file_groups.iter().find(|(f, _)| f == file) {
            return g;
        }
        let mut best: Option<&(String, Vec<String>)> = None;
        for entry in &self.crate_groups {
            let prefix = &entry.0;
            let matches = file == prefix
                || (file.starts_with(prefix.as_str())
                    && file.as_bytes().get(prefix.len()) == Some(&b'/'));
            if matches && best.is_none_or(|b| prefix.len() > b.0.len()) {
                best = Some(entry);
            }
        }
        best.map_or(&self.default_groups, |(_, g)| g)
    }
}

/// A parsed `key = value` right-hand side.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `"…"`
    Str(String),
    /// Bare integer.
    Int(u64),
    /// `["…", "…"]`
    List(Vec<String>),
}

impl Value {
    fn as_str(&self, key: &str) -> Result<String, String> {
        match self {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(format!("`{key}` must be a string")),
        }
    }
    fn as_list(&self, key: &str) -> Result<Vec<String>, String> {
        match self {
            Value::List(v) => Ok(v.clone()),
            _ => Err(format!("`{key}` must be a list of strings")),
        }
    }
    fn as_int(&self, key: &str) -> Result<u64, String> {
        match self {
            Value::Int(n) => Ok(*n),
            _ => Err(format!("`{key}` must be an integer")),
        }
    }
}

/// One `[section]` or `[[section]]` with its key/value pairs.
#[derive(Debug)]
pub struct Section {
    /// Raw header without brackets, e.g. `crate."crates/smt-sim"`.
    pub name: String,
    /// `[[double-bracket]]` table-array entry?
    pub array: bool,
    /// Key/value pairs in order.
    pub pairs: Vec<(String, Value)>,
}

/// Parses the TOML subset into sections. Line-oriented; `#` comments and
/// blanks are skipped. Errors carry 1-based line numbers.
pub fn parse_sections(text: &str) -> Result<Vec<Section>, String> {
    let mut sections: Vec<Section> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim().to_owned();
        if line.is_empty() {
            continue;
        }
        if let Some(inner) = line.strip_prefix("[[").and_then(|r| r.strip_suffix("]]")) {
            sections.push(Section {
                name: inner.trim().to_owned(),
                array: true,
                pairs: Vec::new(),
            });
        } else if let Some(inner) = line.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
            sections.push(Section {
                name: inner.trim().to_owned(),
                array: false,
                pairs: Vec::new(),
            });
        } else if let Some(eq) = line.find('=') {
            let key = line[..eq].trim().to_owned();
            let value =
                parse_value(line[eq + 1..].trim()).map_err(|e| format!("line {lineno}: {e}"))?;
            let section = sections
                .last_mut()
                .ok_or_else(|| format!("line {lineno}: `{key}` outside any [section]"))?;
            section.pairs.push((key, value));
        } else {
            return Err(format!("line {lineno}: cannot parse `{line}`"));
        }
    }
    Ok(sections)
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(v: &str) -> Result<Value, String> {
    if let Some(s) = v.strip_prefix('"').and_then(|r| r.strip_suffix('"')) {
        return Ok(Value::Str(s.to_owned()));
    }
    if let Some(inner) = v.strip_prefix('[').and_then(|r| r.strip_suffix(']')) {
        let mut items = Vec::new();
        for part in inner.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match part.strip_prefix('"').and_then(|r| r.strip_suffix('"')) {
                Some(s) => items.push(s.to_owned()),
                None => return Err(format!("list item `{part}` is not a quoted string")),
            }
        }
        return Ok(Value::List(items));
    }
    let digits: String = v.chars().filter(|c| *c != '_').collect();
    if !digits.is_empty() && digits.chars().all(|c| c.is_ascii_digit()) {
        return digits
            .parse()
            .map(Value::Int)
            .map_err(|e| format!("bad integer `{v}`: {e}"));
    }
    Err(format!(
        "cannot parse value `{v}` (string / integer / [list] only)"
    ))
}

/// Validates that every named group exists.
fn check_groups(groups: &[String], context: &str) -> Result<(), String> {
    for g in groups {
        if rules::group_rules(g).is_none() {
            return Err(format!(
                "{context}: unknown rule group `{g}` (valid: {})",
                rules::GROUPS.join(", ")
            ));
        }
    }
    Ok(())
}

/// Splits `path/to/file.rs#CONST` into its two halves.
fn parse_anchor(s: &str, key: &str) -> Result<(String, String), String> {
    match s.split_once('#') {
        Some((f, c)) if !f.is_empty() && !c.is_empty() => Ok((f.to_owned(), c.to_owned())),
        _ => Err(format!(
            "`{key}` must look like `path/to/file.rs#CONST_NAME`, got `{s}`"
        )),
    }
}

/// Parses the full `lint.toml` text.
pub fn parse(text: &str) -> Result<LintConfig, String> {
    let mut cfg = LintConfig::default();
    for section in parse_sections(text)? {
        let name = section.name.as_str();
        let get = |key: &str| -> Option<&Value> {
            section.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        };
        let known = |allowed: &[&str]| -> Result<(), String> {
            for (k, _) in &section.pairs {
                if !allowed.contains(&k.as_str()) {
                    return Err(format!("[{name}]: unknown key `{k}`"));
                }
            }
            Ok(())
        };
        if name == "default" {
            known(&["groups"])?;
            cfg.default_groups = get("groups")
                .ok_or("[default] needs `groups`")?
                .as_list("groups")?;
            check_groups(&cfg.default_groups, "[default]")?;
        } else if name == "scan" {
            known(&["exclude"])?;
            if let Some(v) = get("exclude") {
                cfg.exclude = v.as_list("exclude")?;
            }
        } else if let Some(rest) = name.strip_prefix("crate.") {
            known(&["groups"])?;
            let path = rest.trim_matches('"').to_owned();
            let groups = get("groups")
                .ok_or_else(|| format!("[{name}] needs `groups`"))?
                .as_list("groups")?;
            check_groups(&groups, name)?;
            cfg.crate_groups.push((path, groups));
        } else if let Some(rest) = name.strip_prefix("file.") {
            known(&["groups"])?;
            let path = rest.trim_matches('"').to_owned();
            let groups = get("groups")
                .ok_or_else(|| format!("[{name}] needs `groups`"))?
                .as_list("groups")?;
            check_groups(&groups, name)?;
            cfg.file_groups.push((path, groups));
        } else if name == "mirror" && section.array {
            known(&["id", "left", "right", "search"])?;
            cfg.mirrors.push(MirrorPin {
                id: get("id").ok_or("[[mirror]] needs `id`")?.as_str("id")?,
                left: parse_anchor(
                    &get("left")
                        .ok_or("[[mirror]] needs `left`")?
                        .as_str("left")?,
                    "left",
                )?,
                right: parse_anchor(
                    &get("right")
                        .ok_or("[[mirror]] needs `right`")?
                        .as_str("right")?,
                    "right",
                )?,
                search: match get("search") {
                    Some(v) => v.as_list("search")?,
                    None => Vec::new(),
                },
            });
        } else if name == "layout" && section.array {
            known(&["id", "file", "struct", "max_bytes"])?;
            cfg.layouts.push(LayoutPin {
                id: get("id").ok_or("[[layout]] needs `id`")?.as_str("id")?,
                file: get("file")
                    .ok_or("[[layout]] needs `file`")?
                    .as_str("file")?,
                name: get("struct")
                    .ok_or("[[layout]] needs `struct`")?
                    .as_str("struct")?,
                max_bytes: get("max_bytes")
                    .ok_or("[[layout]] needs `max_bytes`")?
                    .as_int("max_bytes")?,
            });
        } else {
            return Err(format!(
                "unknown section [{name}] (default / scan / crate.\"…\" / file.\"…\" / \
                 [[mirror]] / [[layout]])"
            ));
        }
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment
[default]
groups = ["determinism", "panic", "unsafe"]

[scan]
exclude = ["target", "crates/smt-lint/tests/fixtures"]

[crate."crates/smt-sim"]
groups = ["determinism", "unsafe"]

[file."crates/x/src/bin/tool.rs"]
groups = ["unsafe"]

[[mirror]]
id = "MIRROR-A"
left = "a.rs#LEFT"
right = "b.rs#RIGHT"
search = ["c.rs"]

[[layout]]
id = "LAYOUT-P"
file = "p.rs"
struct = "Packed"
max_bytes = 16
"#;

    #[test]
    fn parses_the_full_shape() {
        let cfg = parse(SAMPLE).expect("parses");
        assert_eq!(cfg.default_groups.len(), 3);
        assert_eq!(cfg.exclude.len(), 2);
        assert_eq!(cfg.crate_groups[0].0, "crates/smt-sim");
        assert_eq!(cfg.mirrors[0].left, ("a.rs".into(), "LEFT".into()));
        assert_eq!(cfg.layouts[0].max_bytes, 16);
    }

    #[test]
    fn group_resolution_precedence() {
        let cfg = parse(SAMPLE).expect("parses");
        assert_eq!(cfg.groups_for("crates/smt-sim/src/core.rs").len(), 2);
        assert_eq!(cfg.groups_for("crates/x/src/bin/tool.rs").len(), 1);
        assert_eq!(cfg.groups_for("crates/other/src/lib.rs").len(), 3);
        // Prefix must end at a path boundary.
        assert_eq!(cfg.groups_for("crates/smt-simx/src/lib.rs").len(), 3);
    }

    #[test]
    fn unknown_group_and_section_are_loud() {
        assert!(parse("[default]\ngroups = [\"nope\"]\n").is_err());
        assert!(parse("[wat]\nx = 1\n").is_err());
        assert!(parse("[default]\ntypo = [\"unsafe\"]\n").is_err());
    }
}
