//! A simulated durable object store — the "bottomless" tier that
//! backs the tiered-durability experiments.
//!
//! The store is a *passive analytic model*, not an actor: uploads and
//! downloads do not travel through the simulated network (the durable
//! tier has its own dedicated path in real deployments, so backup
//! traffic must not contend with replication traffic, and a disabled
//! tier must leave a run bit-for-bit unchanged). An upload instead
//! computes the virtual time at which the shipped frame becomes
//! durable: serialized behind earlier uploads by the configured
//! bandwidth, then delayed by the tier's latency (`upload_lag`).
//!
//! With `upload_lag == 0` and unlimited bandwidth a frame is durable
//! the instant it is sealed — the synchronous-tier limit the
//! digest-identity tests pin down.

/// Configuration of the simulated object store.
///
/// # Examples
///
/// ```
/// use repl_sim::ObjectStoreConfig;
/// let cfg = ObjectStoreConfig::default();
/// assert_eq!(cfg.upload_lag, 0);
/// assert_eq!(cfg.bandwidth_bytes_per_tick, 0); // unlimited
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectStoreConfig {
    /// One-way latency of a PUT, in virtual ticks: the time between a
    /// frame leaving the uploader and the store acknowledging it
    /// durable. Zero models a synchronous durable tier.
    pub upload_lag: u64,
    /// Upload bandwidth in bytes per tick; `0` means unlimited.
    /// Uploads are serialized: a frame's transfer starts only after
    /// the previous frame finished transferring.
    pub bandwidth_bytes_per_tick: u64,
    /// Download bandwidth in bytes per tick for restores; `0` means
    /// unlimited (the restore then costs only `upload_lag` per GET).
    pub download_bytes_per_tick: u64,
    /// Accounting cost per PUT request, in abstract cost units.
    pub put_cost: u64,
    /// Accounting cost per 1024 uploaded bytes, in abstract cost units.
    pub cost_per_kib: u64,
}

impl Default for ObjectStoreConfig {
    fn default() -> Self {
        ObjectStoreConfig {
            upload_lag: 0,
            bandwidth_bytes_per_tick: 0,
            download_bytes_per_tick: 0,
            put_cost: 1,
            cost_per_kib: 1,
        }
    }
}

impl ObjectStoreConfig {
    /// A synchronous tier: zero latency, unlimited bandwidth.
    pub fn synchronous() -> Self {
        ObjectStoreConfig::default()
    }

    /// A tier with the given PUT latency and otherwise default limits.
    pub fn with_lag(lag: u64) -> Self {
        ObjectStoreConfig {
            upload_lag: lag,
            ..ObjectStoreConfig::default()
        }
    }
}

/// One node's view of the simulated object store: upload scheduling
/// state plus cumulative accounting.
///
/// # Examples
///
/// ```
/// use repl_sim::{ObjectStore, ObjectStoreConfig};
///
/// let mut os = ObjectStore::new(ObjectStoreConfig::with_lag(500));
/// let durable_at = os.upload(1_000, 64);
/// assert_eq!(durable_at, 1_500);
/// assert_eq!(os.puts(), 1);
/// assert_eq!(os.bytes_uploaded(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct ObjectStore {
    cfg: ObjectStoreConfig,
    /// Virtual time until which the upload link is busy.
    busy_until: u64,
    puts: u64,
    bytes_uploaded: u64,
    cost: u64,
}

impl ObjectStore {
    /// Creates an empty store model.
    pub fn new(cfg: ObjectStoreConfig) -> Self {
        ObjectStore {
            cfg,
            busy_until: 0,
            puts: 0,
            bytes_uploaded: 0,
            cost: 0,
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> ObjectStoreConfig {
        self.cfg
    }

    /// Ships `bytes` at time `now` and returns the virtual time at
    /// which the frame is durable in the store: transfer start is
    /// serialized behind earlier uploads, the transfer itself is paced
    /// by the upload bandwidth, and the PUT latency is added on top.
    pub fn upload(&mut self, now: u64, bytes: u64) -> u64 {
        let start = now.max(self.busy_until);
        let transfer = match self.cfg.bandwidth_bytes_per_tick {
            0 => 0,
            bw => bytes.div_ceil(bw),
        };
        self.busy_until = start + transfer;
        self.puts += 1;
        self.bytes_uploaded += bytes;
        self.cost += self.cfg.put_cost + (bytes / 1024) * self.cfg.cost_per_kib;
        self.busy_until + self.cfg.upload_lag
    }

    /// Ticks needed to download `bytes` during a restore: one GET
    /// round-trip (the upload lag again) plus the paced transfer.
    pub fn download_ticks(&self, bytes: u64) -> u64 {
        let transfer = match self.cfg.download_bytes_per_tick {
            0 => 0,
            bw => bytes.div_ceil(bw),
        };
        self.cfg.upload_lag + transfer
    }

    /// PUT requests issued so far.
    pub fn puts(&self) -> u64 {
        self.puts
    }

    /// Total bytes shipped to the tier.
    pub fn bytes_uploaded(&self) -> u64 {
        self.bytes_uploaded
    }

    /// Accumulated abstract storage cost (PUTs plus volume).
    pub fn cost(&self) -> u64 {
        self.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronous_tier_is_durable_instantly() {
        let mut os = ObjectStore::new(ObjectStoreConfig::synchronous());
        assert_eq!(os.upload(0, 1_000), 0);
        assert_eq!(os.upload(77, 1_000_000), 77);
        assert_eq!(os.download_ticks(1 << 30), 0);
    }

    #[test]
    fn lag_shifts_durability_but_not_ordering() {
        let mut os = ObjectStore::new(ObjectStoreConfig::with_lag(250));
        assert_eq!(os.upload(100, 10), 350);
        // Unlimited bandwidth: uploads don't queue behind each other.
        assert_eq!(os.upload(101, 10), 351);
    }

    #[test]
    fn bandwidth_serializes_uploads() {
        let cfg = ObjectStoreConfig {
            upload_lag: 100,
            bandwidth_bytes_per_tick: 10,
            ..ObjectStoreConfig::default()
        };
        let mut os = ObjectStore::new(cfg);
        // 95 bytes at 10 B/tick = 10 ticks of transfer, then the lag.
        assert_eq!(os.upload(0, 95), 110);
        // Second upload queues behind the first transfer (ends t=10).
        assert_eq!(os.upload(5, 20), 112);
        assert_eq!(os.puts(), 2);
        assert_eq!(os.bytes_uploaded(), 115);
    }

    #[test]
    fn download_pays_lag_and_transfer() {
        let cfg = ObjectStoreConfig {
            upload_lag: 40,
            download_bytes_per_tick: 8,
            ..ObjectStoreConfig::default()
        };
        let os = ObjectStore::new(cfg);
        assert_eq!(os.download_ticks(0), 40);
        assert_eq!(os.download_ticks(64), 48);
        assert_eq!(os.download_ticks(65), 49);
    }

    #[test]
    fn cost_accounts_puts_and_volume() {
        let cfg = ObjectStoreConfig {
            put_cost: 5,
            cost_per_kib: 2,
            ..ObjectStoreConfig::default()
        };
        let mut os = ObjectStore::new(cfg);
        os.upload(0, 2048);
        os.upload(1, 100);
        assert_eq!(os.cost(), 5 + 4 + 5);
    }
}
