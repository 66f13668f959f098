//! The resource database: textual configuration of communication methods.
//!
//! The paper lists several ways to determine which communication modules an
//! executable uses: a build-time default set, entries in a *resource
//! database*, command-line arguments, and API calls (§3.1). This module
//! implements the resource-database format and a command-line-style
//! override layer. The format is line-oriented:
//!
//! ```text
//! # comment
//! modules mpl shmem tcp          # enabled modules, also the priority order
//! param tcp.sockbuf 65536        # module parameter
//! skip_poll tcp 20               # poll every 20th pass
//! adaptive_skip_poll tcp 1 4096  # adaptive controller, bounded [min,max]
//! reselect 1.25 3                # live re-selection: margin, K checks
//! policy first-applicable        # selection policy name
//! ```

use crate::context::Context;
use crate::descriptor::MethodId;
use crate::error::{NexusError, Result};
use crate::module::ModuleRegistry;

/// Parsed runtime configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RtConfig {
    /// Enabled module names in priority order (empty = registry default).
    pub modules: Vec<String>,
    /// Module parameters as (module, key, value).
    pub params: Vec<(String, String, String)>,
    /// skip_poll settings as (module, value).
    pub skip_poll: Vec<(String, u64)>,
    /// Adaptive skip_poll settings as (module, min, max): the controller
    /// owns the skip value within those bounds.
    pub adaptive_skip_poll: Vec<(String, u64, u64)>,
    /// Live re-selection settings as (margin, consecutive checks), if
    /// enabled.
    pub reselect: Option<(f64, u32)>,
    /// Selection policy name, if specified.
    pub policy: Option<String>,
}

impl RtConfig {
    /// Loads and parses a resource-database file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<RtConfig> {
        let text = std::fs::read_to_string(path)?;
        Self::parse(&text)
    }

    /// Parses resource-database text.
    pub fn parse(text: &str) -> Result<RtConfig> {
        let mut cfg = RtConfig::default();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut words = line.split_whitespace();
            let key = words.next().unwrap();
            let lineno = i + 1;
            match key {
                "modules" => {
                    cfg.modules = words.by_ref().map(str::to_owned).collect();
                    if cfg.modules.is_empty() {
                        return Err(NexusError::Config {
                            line: lineno,
                            reason: "modules directive needs at least one name".into(),
                        });
                    }
                }
                "param" => {
                    let spec = words.next().ok_or(NexusError::Config {
                        line: lineno,
                        reason: "param needs module.key value".into(),
                    })?;
                    let value = words.next().ok_or(NexusError::Config {
                        line: lineno,
                        reason: "param needs a value".into(),
                    })?;
                    let (module, pkey) = spec.split_once('.').ok_or(NexusError::Config {
                        line: lineno,
                        reason: "param spec must be module.key".into(),
                    })?;
                    cfg.params
                        .push((module.to_owned(), pkey.to_owned(), value.to_owned()));
                }
                "skip_poll" => {
                    let module = words.next().ok_or(NexusError::Config {
                        line: lineno,
                        reason: "skip_poll needs a module name".into(),
                    })?;
                    let v: u64 =
                        words
                            .next()
                            .and_then(|w| w.parse().ok())
                            .ok_or(NexusError::Config {
                                line: lineno,
                                reason: "skip_poll needs an integer value".into(),
                            })?;
                    cfg.skip_poll.push((module.to_owned(), v));
                }
                "adaptive_skip_poll" => {
                    let module = words.next().ok_or(NexusError::Config {
                        line: lineno,
                        reason: "adaptive_skip_poll needs a module name".into(),
                    })?;
                    let min: u64 =
                        words
                            .next()
                            .and_then(|w| w.parse().ok())
                            .ok_or(NexusError::Config {
                                line: lineno,
                                reason: "adaptive_skip_poll needs integer min and max".into(),
                            })?;
                    let max: u64 =
                        words
                            .next()
                            .and_then(|w| w.parse().ok())
                            .ok_or(NexusError::Config {
                                line: lineno,
                                reason: "adaptive_skip_poll needs integer min and max".into(),
                            })?;
                    if min == 0 || max < min {
                        return Err(NexusError::Config {
                            line: lineno,
                            reason: "adaptive_skip_poll needs 1 <= min <= max".into(),
                        });
                    }
                    cfg.adaptive_skip_poll.push((module.to_owned(), min, max));
                }
                "reselect" => {
                    let margin: f64 =
                        words
                            .next()
                            .and_then(|w| w.parse().ok())
                            .ok_or(NexusError::Config {
                                line: lineno,
                                reason: "reselect needs a margin and a check count".into(),
                            })?;
                    let k: u32 =
                        words
                            .next()
                            .and_then(|w| w.parse().ok())
                            .ok_or(NexusError::Config {
                                line: lineno,
                                reason: "reselect needs a margin and a check count".into(),
                            })?;
                    // `margin >= 1.0` is false for NaN, so the positive check
                    // simultaneously rejects NaN and sub-unity margins.
                    let margin_ok = margin >= 1.0;
                    if !margin_ok || k == 0 {
                        return Err(NexusError::Config {
                            line: lineno,
                            reason: "reselect needs margin >= 1.0 and checks >= 1".into(),
                        });
                    }
                    cfg.reselect = Some((margin, k));
                }
                "policy" => {
                    cfg.policy = Some(
                        words
                            .next()
                            .ok_or(NexusError::Config {
                                line: lineno,
                                reason: "policy needs a name".into(),
                            })?
                            .to_owned(),
                    );
                }
                other => {
                    return Err(NexusError::Config {
                        line: lineno,
                        reason: format!("unknown directive {other:?}"),
                    });
                }
            }
            if words.next().is_some() && key != "modules" {
                return Err(NexusError::Config {
                    line: lineno,
                    reason: "trailing words".into(),
                });
            }
        }
        Ok(cfg)
    }

    /// Applies command-line-style overrides of the form
    /// `-nexus-modules=a,b,c`, `-nexus-param=mod.key=value`,
    /// `-nexus-skip-poll=mod:N`, `-nexus-adaptive-skip-poll=mod:min:max`,
    /// `-nexus-reselect=margin:K`. Unknown arguments are ignored (they
    /// belong to the application).
    pub fn apply_args<'a>(&mut self, args: impl IntoIterator<Item = &'a str>) -> Result<()> {
        for a in args {
            if let Some(v) = a.strip_prefix("-nexus-modules=") {
                self.modules = v.split(',').map(str::to_owned).collect();
            } else if let Some(v) = a.strip_prefix("-nexus-param=") {
                let (spec, value) = v.split_once('=').ok_or(NexusError::Config {
                    line: 0,
                    reason: format!("bad -nexus-param {v:?}"),
                })?;
                let (module, key) = spec.split_once('.').ok_or(NexusError::Config {
                    line: 0,
                    reason: format!("bad -nexus-param spec {spec:?}"),
                })?;
                self.params
                    .push((module.to_owned(), key.to_owned(), value.to_owned()));
            } else if let Some(v) = a.strip_prefix("-nexus-skip-poll=") {
                let (module, n) = v.split_once(':').ok_or(NexusError::Config {
                    line: 0,
                    reason: format!("bad -nexus-skip-poll {v:?}"),
                })?;
                let n: u64 = n.parse().map_err(|_| NexusError::Config {
                    line: 0,
                    reason: format!("bad -nexus-skip-poll value {v:?}"),
                })?;
                self.skip_poll.push((module.to_owned(), n));
            } else if let Some(v) = a.strip_prefix("-nexus-adaptive-skip-poll=") {
                let mut parts = v.split(':');
                let module = parts.next().unwrap_or("");
                let min = parts.next().and_then(|w| w.parse::<u64>().ok());
                let max = parts.next().and_then(|w| w.parse::<u64>().ok());
                match (min, max) {
                    (Some(min), Some(max))
                        if !module.is_empty()
                            && min >= 1
                            && max >= min
                            && parts.next().is_none() =>
                    {
                        self.adaptive_skip_poll.push((module.to_owned(), min, max));
                    }
                    _ => {
                        return Err(NexusError::Config {
                            line: 0,
                            reason: format!("bad -nexus-adaptive-skip-poll {v:?}"),
                        });
                    }
                }
            } else if let Some(v) = a.strip_prefix("-nexus-reselect=") {
                let (margin, k) = v.split_once(':').ok_or(NexusError::Config {
                    line: 0,
                    reason: format!("bad -nexus-reselect {v:?}"),
                })?;
                let margin: f64 = margin.parse().map_err(|_| NexusError::Config {
                    line: 0,
                    reason: format!("bad -nexus-reselect margin {v:?}"),
                })?;
                let k: u32 = k.parse().map_err(|_| NexusError::Config {
                    line: 0,
                    reason: format!("bad -nexus-reselect checks {v:?}"),
                })?;
                // As in `parse`: `>= 1.0` is false for NaN, rejecting both.
                let margin_ok = margin >= 1.0;
                if !margin_ok || k == 0 {
                    return Err(NexusError::Config {
                        line: 0,
                        reason: format!("bad -nexus-reselect bounds {v:?}"),
                    });
                }
                self.reselect = Some((margin, k));
            }
        }
        Ok(())
    }

    /// Resolves the configured module order against a registry and applies
    /// it (unknown names are an error) together with module parameters.
    pub fn apply_registry(&self, registry: &ModuleRegistry) -> Result<()> {
        if !self.modules.is_empty() {
            let mut order = Vec::with_capacity(self.modules.len());
            for name in &self.modules {
                let m = registry
                    .get_by_name(name)
                    .ok_or_else(|| NexusError::Config {
                        line: 0,
                        reason: format!("unknown module {name:?}"),
                    })?;
                order.push(m.method());
            }
            registry.set_order(&order)?;
        }
        for (module, key, value) in &self.params {
            let m = registry
                .get_by_name(module)
                .ok_or_else(|| NexusError::Config {
                    line: 0,
                    reason: format!("unknown module {module:?} in param"),
                })?;
            m.set_param(key, value)?;
        }
        Ok(())
    }

    /// The configured enabled-method list resolved to ids, if any.
    pub fn enabled_methods(&self, registry: &ModuleRegistry) -> Result<Option<Vec<MethodId>>> {
        if self.modules.is_empty() {
            return Ok(None);
        }
        let mut out = Vec::with_capacity(self.modules.len());
        for name in &self.modules {
            let m = registry
                .get_by_name(name)
                .ok_or_else(|| NexusError::Config {
                    line: 0,
                    reason: format!("unknown module {name:?}"),
                })?;
            out.push(m.method());
        }
        Ok(Some(out))
    }

    /// Applies per-context settings (skip_poll values, adaptive skip_poll
    /// bounds, live re-selection) to a context.
    pub fn apply_context(&self, ctx: &Context) -> Result<()> {
        let registry = ctx.registry()?;
        for (module, n) in &self.skip_poll {
            let m = registry
                .get_by_name(module)
                .ok_or_else(|| NexusError::Config {
                    line: 0,
                    reason: format!("unknown module {module:?} in skip_poll"),
                })?;
            ctx.set_skip_poll(m.method(), *n);
        }
        for (module, min, max) in &self.adaptive_skip_poll {
            let m = registry
                .get_by_name(module)
                .ok_or_else(|| NexusError::Config {
                    line: 0,
                    reason: format!("unknown module {module:?} in adaptive_skip_poll"),
                })?;
            ctx.set_adaptive_skip_poll(
                m.method(),
                crate::poll::AdaptiveSkipPoll {
                    min: *min,
                    max: *max,
                    ..Default::default()
                },
            );
        }
        if let Some((margin, k)) = self.reselect {
            ctx.set_reselection(Some(crate::selection::ReselectConfig {
                margin,
                consecutive: k,
                ..Default::default()
            }));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_config() {
        let text = "\
# climate run configuration
modules mpl shmem tcp
param tcp.sockbuf 65536   # big buffers
skip_poll tcp 12000
policy first-applicable
";
        let cfg = RtConfig::parse(text).unwrap();
        assert_eq!(cfg.modules, vec!["mpl", "shmem", "tcp"]);
        assert_eq!(
            cfg.params,
            vec![("tcp".into(), "sockbuf".into(), "65536".into())]
        );
        assert_eq!(cfg.skip_poll, vec![("tcp".into(), 12000)]);
        assert_eq!(cfg.policy.as_deref(), Some("first-applicable"));
    }

    #[test]
    fn parse_empty_and_comments_only() {
        let cfg = RtConfig::parse("\n# nothing\n   \n").unwrap();
        assert_eq!(cfg, RtConfig::default());
    }

    #[test]
    fn parse_rejects_bad_directives() {
        assert!(RtConfig::parse("frobnicate yes").is_err());
        assert!(RtConfig::parse("modules").is_err());
        assert!(RtConfig::parse("param tcp 3").is_err());
        assert!(RtConfig::parse("skip_poll tcp many").is_err());
        assert!(RtConfig::parse("policy").is_err());
        assert!(RtConfig::parse("skip_poll tcp 3 extra").is_err());
    }

    #[test]
    fn parse_adaptive_and_reselect_directives() {
        let cfg = RtConfig::parse("adaptive_skip_poll tcp 1 4096\nreselect 1.5 4\n").unwrap();
        assert_eq!(cfg.adaptive_skip_poll, vec![("tcp".into(), 1, 4096)]);
        assert_eq!(cfg.reselect, Some((1.5, 4)));
    }

    #[test]
    fn parse_rejects_bad_adaptive_and_reselect() {
        assert!(RtConfig::parse("adaptive_skip_poll tcp").is_err());
        assert!(RtConfig::parse("adaptive_skip_poll tcp 1").is_err());
        assert!(RtConfig::parse("adaptive_skip_poll tcp 0 16").is_err());
        assert!(RtConfig::parse("adaptive_skip_poll tcp 16 4").is_err());
        assert!(RtConfig::parse("adaptive_skip_poll tcp 1 16 extra").is_err());
        assert!(RtConfig::parse("reselect 1.5").is_err());
        assert!(RtConfig::parse("reselect 0.5 3").is_err());
        assert!(RtConfig::parse("reselect 1.5 0").is_err());
        assert!(RtConfig::parse("reselect 1.5 3 extra").is_err());
    }

    #[test]
    fn args_set_adaptive_and_reselect() {
        let mut cfg = RtConfig::default();
        cfg.apply_args([
            "-nexus-adaptive-skip-poll=mpl:2:512",
            "-nexus-reselect=1.25:3",
        ])
        .unwrap();
        assert_eq!(cfg.adaptive_skip_poll, vec![("mpl".into(), 2, 512)]);
        assert_eq!(cfg.reselect, Some((1.25, 3)));
        assert!(cfg.apply_args(["-nexus-adaptive-skip-poll=mpl:2"]).is_err());
        assert!(cfg
            .apply_args(["-nexus-adaptive-skip-poll=mpl:0:512"])
            .is_err());
        assert!(cfg.apply_args(["-nexus-reselect=0.9:3"]).is_err());
        assert!(cfg.apply_args(["-nexus-reselect=1.25:0"]).is_err());
    }

    #[test]
    fn error_reports_line_number() {
        let err = RtConfig::parse("modules tcp\nbogus x").unwrap_err();
        match err {
            NexusError::Config { line, .. } => assert_eq!(line, 2),
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn load_reads_a_file() {
        let dir = std::env::temp_dir().join(format!("nexusrc-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("nexusrc");
        std::fs::write(&path, "modules tcp\nskip_poll tcp 7\n").unwrap();
        let cfg = RtConfig::load(&path).unwrap();
        assert_eq!(cfg.modules, vec!["tcp"]);
        assert_eq!(cfg.skip_poll, vec![("tcp".into(), 7)]);
        assert!(RtConfig::load(dir.join("missing")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn args_override_config() {
        let mut cfg = RtConfig::parse("modules mpl tcp").unwrap();
        cfg.apply_args([
            "--app-flag",
            "-nexus-modules=tcp",
            "-nexus-skip-poll=tcp:20",
            "-nexus-param=tcp.sockbuf=1024",
        ])
        .unwrap();
        assert_eq!(cfg.modules, vec!["tcp"]);
        assert_eq!(cfg.skip_poll, vec![("tcp".into(), 20)]);
        assert_eq!(
            cfg.params,
            vec![("tcp".into(), "sockbuf".into(), "1024".into())]
        );
    }

    #[test]
    fn bad_args_are_errors() {
        let mut cfg = RtConfig::default();
        assert!(cfg.apply_args(["-nexus-skip-poll=tcp"]).is_err());
        assert!(cfg.apply_args(["-nexus-param=tcp=3"]).is_err());
        assert!(cfg.apply_args(["-nexus-skip-poll=tcp:x"]).is_err());
    }
}
