//! The hardware catalog.
//!
//! A fleet of machine types modeled on the CloudLab hardware the paper's
//! campaign ran on (Utah / Wisconsin / Clemson sites). Counts and nominal
//! performance figures are representative, not exact datasheet copies —
//! what matters to the reproduction is heterogeneity across types and the
//! per-subsystem baselines each type contributes.

/// Persistent-storage technology of a machine type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiskKind {
    /// Spinning disk: the most variable subsystem in the study.
    Hdd,
    /// SATA SSD.
    Ssd,
    /// NVMe flash.
    Nvme,
}

impl DiskKind {
    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            DiskKind::Hdd => "HDD",
            DiskKind::Ssd => "SSD",
            DiskKind::Nvme => "NVMe",
        }
    }
}

/// The subsystems whose performance the campaign measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Subsystem {
    /// Memory bandwidth (STREAM-style).
    MemoryBandwidth,
    /// Memory access latency (pointer chasing).
    MemoryLatency,
    /// Sequential disk throughput.
    DiskSequential,
    /// Random disk throughput.
    DiskRandom,
    /// Network round-trip latency.
    NetworkLatency,
    /// Network bulk throughput.
    NetworkBandwidth,
}

impl Subsystem {
    /// All subsystems, in display order.
    pub const ALL: [Subsystem; 6] = [
        Subsystem::MemoryBandwidth,
        Subsystem::MemoryLatency,
        Subsystem::DiskSequential,
        Subsystem::DiskRandom,
        Subsystem::NetworkLatency,
        Subsystem::NetworkBandwidth,
    ];

    /// Index into per-machine factor arrays.
    pub(crate) fn index(&self) -> usize {
        match self {
            Subsystem::MemoryBandwidth => 0,
            Subsystem::MemoryLatency => 1,
            Subsystem::DiskSequential => 2,
            Subsystem::DiskRandom => 3,
            Subsystem::NetworkLatency => 4,
            Subsystem::NetworkBandwidth => 5,
        }
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Subsystem::MemoryBandwidth => "mem-bw",
            Subsystem::MemoryLatency => "mem-lat",
            Subsystem::DiskSequential => "disk-seq",
            Subsystem::DiskRandom => "disk-rand",
            Subsystem::NetworkLatency => "net-lat",
            Subsystem::NetworkBandwidth => "net-bw",
        }
    }

    /// Whether larger measurements are better (throughput) or worse
    /// (latency).
    pub fn higher_is_better(&self) -> bool {
        !matches!(self, Subsystem::MemoryLatency | Subsystem::NetworkLatency)
    }
}

/// A machine type in the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineType {
    /// Type name (CloudLab-style, e.g. `c220g1`).
    pub name: String,
    /// Site hosting the type.
    pub site: String,
    /// CPU model string.
    pub cpu: String,
    /// Physical core count.
    pub cores: u32,
    /// Nominal clock in GHz.
    pub base_ghz: f64,
    /// Installed RAM in GiB.
    pub ram_gb: u32,
    /// Storage technology.
    pub disk: DiskKind,
    /// NIC speed in Gb/s.
    pub nic_gbps: u32,
    /// Number of machines of this type in the fleet.
    pub count: usize,
    /// Nominal memory bandwidth (MB/s, STREAM triad scale).
    pub mem_bw_mbps: f64,
    /// Nominal memory latency (ns).
    pub mem_lat_ns: f64,
    /// Nominal sequential disk throughput (MB/s).
    pub disk_seq_mbps: f64,
    /// Nominal random-I/O throughput (MB/s at 4k).
    pub disk_rand_mbps: f64,
    /// Nominal network round-trip latency (us).
    pub net_lat_us: f64,
    /// Nominal network throughput (Mb/s).
    pub net_bw_mbps: f64,
}

impl MachineType {
    /// Nominal (baseline) value for a subsystem.
    pub fn baseline(&self, subsystem: Subsystem) -> f64 {
        match subsystem {
            Subsystem::MemoryBandwidth => self.mem_bw_mbps,
            Subsystem::MemoryLatency => self.mem_lat_ns,
            Subsystem::DiskSequential => self.disk_seq_mbps,
            Subsystem::DiskRandom => self.disk_rand_mbps,
            Subsystem::NetworkLatency => self.net_lat_us,
            Subsystem::NetworkBandwidth => self.net_bw_mbps,
        }
    }
}

/// Builds one machine type entry.
#[allow(clippy::too_many_arguments)]
fn mt(
    name: &str,
    site: &str,
    cpu: &str,
    cores: u32,
    base_ghz: f64,
    ram_gb: u32,
    disk: DiskKind,
    nic_gbps: u32,
    count: usize,
    mem_bw_mbps: f64,
    mem_lat_ns: f64,
    disk_seq_mbps: f64,
    disk_rand_mbps: f64,
    net_lat_us: f64,
    net_bw_mbps: f64,
) -> MachineType {
    MachineType {
        name: name.to_string(),
        site: site.to_string(),
        cpu: cpu.to_string(),
        cores,
        base_ghz,
        ram_gb,
        disk,
        nic_gbps,
        count,
        mem_bw_mbps,
        mem_lat_ns,
        disk_seq_mbps,
        disk_rand_mbps,
        net_lat_us,
        net_bw_mbps,
    }
}

/// The default fleet: ten machine types across three sites, ~900 machines
/// total, mirroring the scale and diversity of the paper's campaign.
pub fn catalog() -> Vec<MachineType> {
    vec![
        mt(
            "m400",
            "utah",
            "ARM Cortex-A57 (X-Gene)",
            8,
            2.4,
            64,
            DiskKind::Ssd,
            10,
            180,
            8_800.0,
            110.0,
            410.0,
            240.0,
            28.0,
            9_400.0,
        ),
        mt(
            "m510",
            "utah",
            "Intel Xeon D-1548",
            8,
            2.0,
            64,
            DiskKind::Nvme,
            10,
            120,
            14_500.0,
            92.0,
            1_150.0,
            620.0,
            22.0,
            9_400.0,
        ),
        mt(
            "xl170",
            "utah",
            "Intel E5-2640 v4",
            10,
            2.4,
            64,
            DiskKind::Ssd,
            25,
            80,
            17_200.0,
            85.0,
            480.0,
            300.0,
            14.0,
            23_500.0,
        ),
        mt(
            "d430",
            "emulab",
            "Intel E5-2630 v3",
            16,
            2.4,
            64,
            DiskKind::Hdd,
            10,
            80,
            16_100.0,
            88.0,
            165.0,
            1.8,
            25.0,
            9_400.0,
        ),
        mt(
            "d710",
            "emulab",
            "Intel Xeon E5530",
            4,
            2.4,
            12,
            DiskKind::Hdd,
            1,
            80,
            7_400.0,
            105.0,
            120.0,
            1.2,
            85.0,
            940.0,
        ),
        mt(
            "c220g1",
            "wisconsin",
            "Intel E5-2630 v3",
            16,
            2.4,
            128,
            DiskKind::Hdd,
            10,
            90,
            16_300.0,
            87.0,
            170.0,
            1.9,
            24.0,
            9_400.0,
        ),
        mt(
            "c220g2",
            "wisconsin",
            "Intel E5-2660 v3",
            20,
            2.6,
            160,
            DiskKind::Hdd,
            10,
            100,
            17_000.0,
            84.0,
            175.0,
            2.0,
            23.0,
            9_400.0,
        ),
        mt(
            "c6220",
            "clemson",
            "Intel E5-2660 v2",
            16,
            2.2,
            256,
            DiskKind::Hdd,
            40,
            60,
            15_200.0,
            95.0,
            155.0,
            1.7,
            18.0,
            37_000.0,
        ),
        mt(
            "c8220",
            "clemson",
            "Intel E5-2660 v2",
            20,
            2.2,
            256,
            DiskKind::Hdd,
            40,
            70,
            15_400.0,
            94.0,
            158.0,
            1.7,
            18.0,
            37_000.0,
        ),
        mt(
            "r320",
            "emulab",
            "Intel E5-2450",
            8,
            2.1,
            16,
            DiskKind::Hdd,
            1,
            33,
            11_900.0,
            98.0,
            140.0,
            1.5,
            90.0,
            940.0,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_ten_types_and_realistic_fleet() {
        let cat = catalog();
        assert_eq!(cat.len(), 10);
        let total: usize = cat.iter().map(|t| t.count).sum();
        assert!((800..=1_000).contains(&total), "fleet size {total}");
    }

    #[test]
    fn catalog_names_are_unique() {
        let cat = catalog();
        let mut names: Vec<&str> = cat.iter().map(|t| t.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cat.len());
    }

    #[test]
    fn catalog_spans_disk_kinds_and_sites() {
        let cat = catalog();
        assert!(cat.iter().any(|t| t.disk == DiskKind::Hdd));
        assert!(cat.iter().any(|t| t.disk == DiskKind::Ssd));
        assert!(cat.iter().any(|t| t.disk == DiskKind::Nvme));
        let sites: std::collections::HashSet<&str> = cat.iter().map(|t| t.site.as_str()).collect();
        assert!(sites.len() >= 3);
    }

    #[test]
    fn baselines_are_positive_and_consistent() {
        for t in catalog() {
            for s in Subsystem::ALL {
                assert!(t.baseline(s) > 0.0, "{} {s:?}", t.name);
            }
            // Random I/O on spinning disks is orders of magnitude below
            // sequential.
            if t.disk == DiskKind::Hdd {
                assert!(t.disk_rand_mbps < t.disk_seq_mbps / 10.0, "{}", t.name);
            }
        }
    }

    #[test]
    fn subsystem_indices_are_a_permutation() {
        let mut seen = [false; 6];
        for s in Subsystem::ALL {
            assert!(!seen[s.index()]);
            seen[s.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn direction_flags() {
        assert!(Subsystem::MemoryBandwidth.higher_is_better());
        assert!(!Subsystem::MemoryLatency.higher_is_better());
        assert!(!Subsystem::NetworkLatency.higher_is_better());
        assert!(Subsystem::NetworkBandwidth.higher_is_better());
    }
}
