//! The one command-line parser (hand-rolled, to keep the dependency set to
//! the workspace whitelist; the surface is small enough that clap would be
//! overkill). Each subcommand declares the options it reads in a [`Spec`],
//! and any other option is refused.

use std::collections::BTreeMap;

/// Options that never take a value: the word after one is never its value.
const FLAGS: &[&str] = &["json", "no-batch", "no-piggyback", "full"];

/// Options whose value may be left out: `--bug` alone arms the default
/// drill, so it takes the next word only when that word is not an option.
const OPTIONAL_VALUE: &[&str] = &["bug"];

/// What one subcommand reads from its command line.
pub struct Spec {
    /// The subcommand's name.
    pub name: &'static str,
    /// Every option it reads, in groups of space-separated names; any
    /// other option is refused.
    pub options: &'static [&'static str],
    /// Whether it takes bare words (the experiment ids of `expts`).
    pub words: bool,
}

/// A subcommand's parsed command line: bare words, `--key value` options
/// and `--flag`s.
#[derive(Debug, Default)]
pub struct Args {
    /// Bare words, in order.
    words: Vec<String>,
    /// `--key value` options; a repeated key keeps its last value.
    options: BTreeMap<String, String>,
    /// Options given without a value.
    flags: Vec<String>,
}

impl Args {
    /// Parses the arguments after the subcommand's name against `spec`.
    ///
    /// A flag never takes a value. Any other option takes the next word,
    /// which must not start with `--`; [`OPTIONAL_VALUE`] options may also
    /// stand alone.
    pub fn parse(spec: &Spec, args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.into_iter().peekable();
        while let Some(word) = it.next() {
            let Some(key) = word.strip_prefix("--") else {
                if !spec.words {
                    return Err(format!("{} takes no argument '{word}'", spec.name));
                }
                out.words.push(word);
                continue;
            };
            if !spec.options.iter().flat_map(|group| group.split(' ')).any(|o| o == key) {
                return Err(format!("{} takes no option --{key}", spec.name));
            }
            if FLAGS.contains(&key) {
                out.flags.push(key.to_string());
            } else if let Some(value) = it.next_if(|next| !next.starts_with("--")) {
                out.options.insert(key.to_string(), value);
            } else if OPTIONAL_VALUE.contains(&key) {
                out.flags.push(key.to_string());
            } else {
                return Err(format!("--{key} needs a value"));
            }
        }
        Ok(out)
    }

    /// The bare words, in order.
    pub fn words(&self) -> &[String] {
        &self.words
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Typed option with default; errors on parse failure.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid value for --{key}: '{v}'")),
        }
    }

    /// Whether an option was given without a value.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ESTIMATE: Spec =
        Spec { name: "estimate", options: &["peers dist", "json rate"], words: false };
    const EXPTS: Spec = Spec { name: "expts", options: &["full csv jobs"], words: true };
    const DST: Spec = Spec { name: "dst", options: &["bug seed out"], words: false };

    fn parse(spec: &Spec, line: &str) -> Result<Args, String> {
        Args::parse(spec, line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_options_flags() {
        let a = parse(&ESTIMATE, "--peers 512 --dist zipf --json").unwrap();
        assert_eq!(a.get("peers"), Some("512"));
        assert_eq!(a.get("dist"), Some("zipf"));
        assert!(a.has_flag("json"));
        assert!(!a.has_flag("peers"));
        assert!(a.words().is_empty());
    }

    #[test]
    fn typed_defaults() {
        let a = parse(&ESTIMATE, "--peers 512").unwrap();
        assert_eq!(a.get_or("peers", 0usize).unwrap(), 512);
        assert_eq!(a.get_or("rate", 64usize).unwrap(), 64);
        let bad = parse(&ESTIMATE, "--peers abc").unwrap();
        assert!(bad.get_or::<usize>("peers", 0).is_err());
    }

    #[test]
    fn flag_before_option() {
        let a = parse(&ESTIMATE, "--json --rate 0.1").unwrap();
        assert!(a.has_flag("json"));
        assert_eq!(a.get("rate"), Some("0.1"));
    }

    #[test]
    fn rejects_stray_positionals() {
        assert!(parse(&ESTIMATE, "extra").is_err());
        // A flag never swallows the word after it.
        let err = parse(&ESTIMATE, "--peers 16 --json extra").unwrap_err();
        assert!(err.contains("takes no argument 'extra'"), "{err}");
        // Nor does `--full`, so the ids stay ids.
        let a = parse(&EXPTS, "--full f12").unwrap();
        assert!(a.has_flag("full"));
        assert_eq!(a.words(), ["f12"]);
    }

    #[test]
    fn unknown_key_detection() {
        let err = parse(&ESTIMATE, "--peers 1 --tyop 2").unwrap_err();
        assert!(err.contains("estimate takes no option --tyop"), "{err}");
        // An option another subcommand reads is foreign here.
        assert!(parse(&EXPTS, "t1 --rate 5").is_err());
        // A value-taking option needs its value.
        assert!(parse(&ESTIMATE, "--peers").is_err());
        assert!(parse(&ESTIMATE, "--peers --json").is_err());
    }

    #[test]
    fn bug_takes_its_drill_name_only_when_one_follows() {
        let bare = parse(&DST, "--bug --seed 7").unwrap();
        assert!(bare.has_flag("bug"));
        assert_eq!((bare.get("bug"), bare.get("seed")), (None, Some("7")));
        let named = parse(&DST, "--bug drop-capacity-fifo-guard --seed 7").unwrap();
        assert!(!named.has_flag("bug"));
        assert_eq!(named.get("bug"), Some("drop-capacity-fifo-guard"));
        assert_eq!(named.get("seed"), Some("7"));
        assert!(parse(&DST, "--seed 7 --bug").unwrap().has_flag("bug"));
    }
}
