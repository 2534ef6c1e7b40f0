//! The benchmark's workloads: scenario documents filled with seeds derived from
//! the benchmark's `--seed`.

/// One named workload: a list of sweep documents run in order in every pass.
#[derive(Debug)]
pub struct WorkloadDef {
    pub name: &'static str,
    /// Sweep documents (file name, text with `@SEED<k>@` placeholders).
    pub docs: &'static [(&'static str, &'static str)],
}

macro_rules! doc {
    ($file:literal) => {
        ($file, include_str!(concat!("../scenarios/", $file)))
    };
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "paper-4x16",
        docs: &[doc!("paper-4x16.toml"), doc!("paper-4x16-service.toml")],
    },
    WorkloadDef {
        name: "lifecycle-16x256",
        docs: &[
            doc!("lifecycle-16x256.toml"),
            doc!("lifecycle-16x256-service.toml"),
            doc!("lifecycle-16x256-app.toml"),
        ],
    },
    WorkloadDef {
        name: "service-faults-4x8",
        docs: &[
            doc!("service-faults-4x8.toml"),
            doc!("service-faults-4x8-kv.toml"),
            doc!("service-faults-4x8-app.toml"),
        ],
    },
];

pub fn by_name(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Placeholders `@SEED0@`..`@SEED<SEEDS-1>@` a document may use.
const SEEDS: u64 = 5;

impl WorkloadDef {
    /// The documents with every seed placeholder replaced; the same `seed`
    /// always gives the same text.
    pub fn documents(&self, seed: u64) -> Vec<(&'static str, String)> {
        self.docs
            .iter()
            .map(|(file, template)| {
                let mut text = template.to_string();
                for k in 0..SEEDS {
                    text = text.replace(&format!("@SEED{k}@"), &derive_seed(seed, k).to_string());
                }
                (*file, text)
            })
            .collect()
    }
}

/// The `k`-th simulation seed for benchmark seed `seed` (splitmix64, kept
/// within 48 bits so it fits the documents' integer type).
fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(SEEDS)
        .wrapping_add(k)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & ((1 << 48) - 1)
}
