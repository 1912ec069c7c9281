//! Container configuration: namespaces, cgroup limits, seccomp, mounts,
//! environment, and execution mode.
//!
//! §3.3: jobs run "inside an isolated user-space container, leveraging Linux
//! kernel primitives such as namespaces, cgroups, and Seccomp profiles to
//! ensure strict resource boundaries". This module models that configuration
//! surface with validation, so the agent can refuse configs that would
//! violate host-guest isolation (the provider-trust foundation).

use crate::image::ImageRef;
use std::collections::BTreeMap;
use std::fmt;

/// Linux namespaces a container is isolated in. GPUnion requires all of
/// these for guest workloads; disabling any is a validation error unless the
/// container is provider-privileged (not exposed to guests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Namespaces {
    /// PID namespace (guest can't see host processes).
    pub pid: bool,
    /// Network namespace (guest gets its own stack).
    pub net: bool,
    /// Mount namespace (guest sees only its rootfs + explicit mounts).
    pub mnt: bool,
    /// UTS namespace (hostname isolation).
    pub uts: bool,
    /// IPC namespace.
    pub ipc: bool,
    /// User namespace (uid 0 in container ≠ uid 0 on host).
    pub user: bool,
}

impl Namespaces {
    /// Full isolation — the only configuration admissible for guest jobs.
    pub const FULL: Namespaces = Namespaces {
        pid: true,
        net: true,
        mnt: true,
        uts: true,
        ipc: true,
        user: true,
    };

    /// Is every namespace enabled?
    pub fn fully_isolated(&self) -> bool {
        self.pid && self.net && self.mnt && self.uts && self.ipc && self.user
    }
}

impl Default for Namespaces {
    fn default() -> Self {
        Namespaces::FULL
    }
}

/// cgroup v2 resource limits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgroupLimits {
    /// CPU cores the container may use (cpu.max quota / period).
    pub cpu_cores: f64,
    /// Host memory limit in bytes (memory.max).
    pub memory_bytes: u64,
    /// Maximum process count (pids.max).
    pub pids_max: u32,
}

impl Default for CgroupLimits {
    fn default() -> Self {
        CgroupLimits {
            cpu_cores: 8.0,
            memory_bytes: 32 << 30,
            pids_max: 4096,
        }
    }
}

/// Seccomp syscall filter profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeccompProfile {
    /// The GPUnion default: Docker's default profile plus denials for
    /// mount/ptrace-class syscalls.
    Default,
    /// No filtering — never admissible for guest workloads.
    Unconfined,
}

/// Syscalls the default profile refuses (host-protection set).
const DENIED_SYSCALLS: &[&str] = &[
    "mount",
    "umount2",
    "reboot",
    "ptrace",
    "kexec_load",
    "init_module",
    "delete_module",
    "swapon",
    "swapoff",
    "setns",
];

impl SeccompProfile {
    /// Would this profile allow `syscall`?
    pub fn allows(&self, syscall: &str) -> bool {
        match self {
            SeccompProfile::Unconfined => true,
            SeccompProfile::Default => !DENIED_SYSCALLS.contains(&syscall),
        }
    }
}

/// A bind mount from host into container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mount {
    /// Host-side path.
    pub host_path: String,
    /// Container-side path.
    pub container_path: String,
    /// Read-only?
    pub read_only: bool,
}

/// Host path prefixes guests may mount from (the node's task data store and
/// the campus shared filesystem). Anything else is an isolation violation.
const ALLOWED_MOUNT_PREFIXES: &[&str] = &["/var/gpunion/data", "/mnt/campus-fs"];

/// How the container runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Batch job with explicit entrypoint (production workloads).
    Batch {
        /// argv to execute.
        entrypoint: Vec<String>,
    },
    /// Interactive research environment: auto-provisioned Jupyter with
    /// pre-configured DL frameworks (§3.3 implementation details).
    Interactive {
        /// Host port mapped to the notebook server.
        jupyter_port: u16,
    },
}

/// Complete container configuration, built via [`ContainerConfigBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerConfig {
    /// Digest-pinned image.
    pub image: ImageRef,
    /// Namespace isolation set.
    pub namespaces: Namespaces,
    /// Resource limits.
    pub limits: CgroupLimits,
    /// Syscall filter.
    pub seccomp: SeccompProfile,
    /// Environment (sorted for determinism). `NVIDIA_VISIBLE_DEVICES` is
    /// the NVIDIA Container Toolkit's to set at GPU-bind time, not the
    /// submitter's.
    pub env: BTreeMap<String, String>,
    /// Bind mounts.
    pub mounts: Vec<Mount>,
    /// Batch or interactive.
    pub mode: ExecutionMode,
    /// GPUs requested (bound to concrete devices at dispatch).
    pub gpus_requested: u8,
}

/// Config validation failures (isolation policy violations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A guest config must enable every namespace.
    IncompleteNamespaces,
    /// Guests may not run unconfined.
    SeccompUnconfined,
    /// A mount escapes the allowed host prefixes.
    ForbiddenMount {
        /// The offending host path.
        host_path: String,
    },
    /// The submitter tried to set a runtime-managed variable.
    ReservedEnvVar {
        /// Variable name.
        name: String,
    },
    /// Batch mode requires a non-empty entrypoint.
    EmptyEntrypoint,
    /// Limits must be positive.
    InvalidLimits,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::IncompleteNamespaces => {
                write!(f, "guest containers require full namespace isolation")
            }
            ConfigError::SeccompUnconfined => {
                write!(f, "guest containers may not run seccomp-unconfined")
            }
            ConfigError::ForbiddenMount { host_path } => {
                write!(f, "mount of '{host_path}' violates host isolation policy")
            }
            ConfigError::ReservedEnvVar { name } => {
                write!(f, "environment variable '{name}' is runtime-managed")
            }
            ConfigError::EmptyEntrypoint => write!(f, "batch mode requires an entrypoint"),
            ConfigError::InvalidLimits => write!(f, "cgroup limits must be positive"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Variables the NVIDIA Container Toolkit sets itself at GPU-bind time.
const RESERVED_ENV: &[&str] = &["NVIDIA_VISIBLE_DEVICES", "CUDA_VISIBLE_DEVICES"];

/// Builder enforcing GPUnion's isolation policy at construction time.
#[derive(Debug, Clone)]
pub struct ContainerConfigBuilder {
    config: ContainerConfig,
}

impl ContainerConfigBuilder {
    /// Start from an image with safe defaults (full isolation, default
    /// seccomp, 1 GPU, batch mode using the image's default entrypoint
    /// placeholder — call [`Self::entrypoint`] or [`Self::interactive`]).
    pub fn new(image: ImageRef) -> Self {
        ContainerConfigBuilder {
            config: ContainerConfig {
                image,
                namespaces: Namespaces::FULL,
                limits: CgroupLimits::default(),
                seccomp: SeccompProfile::Default,
                env: BTreeMap::new(),
                mounts: Vec::new(),
                mode: ExecutionMode::Batch {
                    entrypoint: vec!["python".into(), "train.py".into()],
                },
                gpus_requested: 1,
            },
        }
    }

    /// Set the batch entrypoint.
    pub fn entrypoint(mut self, argv: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.config.mode = ExecutionMode::Batch {
            entrypoint: argv.into_iter().map(Into::into).collect(),
        };
        self
    }

    /// Switch to interactive (Jupyter) mode.
    pub fn interactive(mut self, jupyter_port: u16) -> Self {
        self.config.mode = ExecutionMode::Interactive { jupyter_port };
        self
    }

    /// Request `n` GPUs.
    pub fn gpus(mut self, n: u8) -> Self {
        self.config.gpus_requested = n;
        self
    }

    /// Set cgroup limits.
    pub fn limits(mut self, limits: CgroupLimits) -> Self {
        self.config.limits = limits;
        self
    }

    /// Add an environment variable.
    pub fn env(mut self, k: impl Into<String>, v: impl Into<String>) -> Self {
        self.config.env.insert(k.into(), v.into());
        self
    }

    /// Add a bind mount.
    pub fn mount(
        mut self,
        host_path: impl Into<String>,
        container_path: impl Into<String>,
        read_only: bool,
    ) -> Self {
        self.config.mounts.push(Mount {
            host_path: host_path.into(),
            container_path: container_path.into(),
            read_only,
        });
        self
    }

    /// Override namespaces (validation will reject incomplete isolation).
    pub fn namespaces(mut self, ns: Namespaces) -> Self {
        self.config.namespaces = ns;
        self
    }

    /// Override the seccomp profile (validation rejects Unconfined).
    pub fn seccomp(mut self, profile: SeccompProfile) -> Self {
        self.config.seccomp = profile;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<ContainerConfig, ConfigError> {
        let c = self.config;
        if !c.namespaces.fully_isolated() {
            return Err(ConfigError::IncompleteNamespaces);
        }
        if c.seccomp == SeccompProfile::Unconfined {
            return Err(ConfigError::SeccompUnconfined);
        }
        if c.limits.cpu_cores <= 0.0 || c.limits.memory_bytes == 0 || c.limits.pids_max == 0 {
            return Err(ConfigError::InvalidLimits);
        }
        for m in &c.mounts {
            let ok = ALLOWED_MOUNT_PREFIXES
                .iter()
                .any(|p| m.host_path.starts_with(p));
            if !ok {
                return Err(ConfigError::ForbiddenMount {
                    host_path: m.host_path.clone(),
                });
            }
        }
        for k in c.env.keys() {
            if RESERVED_ENV.contains(&k.as_str()) {
                return Err(ConfigError::ReservedEnvVar { name: k.clone() });
            }
        }
        if let ExecutionMode::Batch { entrypoint } = &c.mode {
            if entrypoint.is_empty() {
                return Err(ConfigError::EmptyEntrypoint);
            }
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{standard_catalogue, ImageRef};

    fn image() -> ImageRef {
        let (_, refs) = standard_catalogue();
        refs[0].clone()
    }

    #[test]
    fn default_build_is_valid() {
        let c = ContainerConfigBuilder::new(image()).build().unwrap();
        assert!(c.namespaces.fully_isolated());
        assert_eq!(c.seccomp, SeccompProfile::Default);
        assert_eq!(c.gpus_requested, 1);
    }

    #[test]
    fn incomplete_namespaces_rejected() {
        let mut ns = Namespaces::FULL;
        ns.user = false;
        let err = ContainerConfigBuilder::new(image())
            .namespaces(ns)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::IncompleteNamespaces);
    }

    #[test]
    fn unconfined_seccomp_rejected() {
        let err = ContainerConfigBuilder::new(image())
            .seccomp(SeccompProfile::Unconfined)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::SeccompUnconfined);
    }

    #[test]
    fn seccomp_default_denies_host_attacks() {
        let p = SeccompProfile::Default;
        assert!(!p.allows("mount"));
        assert!(!p.allows("ptrace"));
        assert!(!p.allows("reboot"));
        assert!(p.allows("read"));
        assert!(p.allows("clone"));
        assert!(SeccompProfile::Unconfined.allows("mount"));
    }

    #[test]
    fn forbidden_mount_rejected() {
        let err = ContainerConfigBuilder::new(image())
            .mount("/etc", "/host-etc", true)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::ForbiddenMount {
                host_path: "/etc".into()
            }
        );
    }

    #[test]
    fn allowed_mounts_pass() {
        let c = ContainerConfigBuilder::new(image())
            .mount("/var/gpunion/data/job-7", "/data", false)
            .mount("/mnt/campus-fs/datasets/imagenet", "/datasets", true)
            .build()
            .unwrap();
        assert_eq!(c.mounts.len(), 2);
    }

    #[test]
    fn reserved_env_rejected() {
        let err = ContainerConfigBuilder::new(image())
            .env("NVIDIA_VISIBLE_DEVICES", "all")
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::ReservedEnvVar { .. }));
    }

    #[test]
    fn empty_entrypoint_rejected() {
        let err = ContainerConfigBuilder::new(image())
            .entrypoint(Vec::<String>::new())
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::EmptyEntrypoint);
    }

    #[test]
    fn zero_limits_rejected() {
        let err = ContainerConfigBuilder::new(image())
            .limits(CgroupLimits {
                cpu_cores: 0.0,
                ..Default::default()
            })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::InvalidLimits);
    }

    #[test]
    fn interactive_mode_builds() {
        let c = ContainerConfigBuilder::new(image())
            .interactive(8888)
            .build()
            .unwrap();
        assert_eq!(c.mode, ExecutionMode::Interactive { jupyter_port: 8888 });
    }

    /// A built config pins its image to the catalogue manifest's content
    /// digest: the identity the deployment-time admission check verifies.
    #[test]
    fn config_pins_the_manifest_digest() {
        let (registry, refs) = standard_catalogue();
        let c = ContainerConfigBuilder::new(refs[0].clone())
            .build()
            .unwrap();
        let manifest = registry.manifest(&c.image).expect("a catalogue image");
        assert_eq!(c.image.digest, manifest.digest());
    }
}
