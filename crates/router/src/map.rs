//! Versioned, journaled power-domain → shard assignment.
//!
//! A [`ShardMap`] deterministically assigns every global power domain to
//! exactly one shard via **rendezvous (highest-random-weight) hashing**:
//! domain `g` belongs to the member whose `hash(member, g)` is largest.
//! The properties that matter here:
//!
//! * **Total and unique** — every domain maps to exactly one member, for
//!   any non-empty membership (the routing-property suite pins this).
//! * **Deterministic** — the hash is a fixed FNV-1a over the member name
//!   and the domain index; the same membership always yields the same
//!   assignment, on any host.
//! * **Minimal movement** — adding or removing one member only moves the
//!   domains that member wins or owned; all other assignments are
//!   untouched.
//!
//! Reassignment is **explicit, never implicit**: the map carries a
//! version that bumps on every membership change, and when a journal
//! path is attached every change is appended as a line — a restarted
//! router replays the journal and arrives at the same version and
//! assignment, and an operator can audit exactly when each domain moved.

use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Error raised when loading or appending the shard-map journal.
#[derive(Debug)]
pub enum MapError {
    /// Reading or writing the journal failed.
    Io(std::io::Error),
    /// The journal contents are not a valid shard-map history.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// An operation was invalid for the current membership.
    Membership(String),
    /// A journal record's version did not advance the map by exactly one:
    /// a duplicated or stale tail (torn write, doubled append, an old
    /// journal segment glued after a newer one) rather than a valid
    /// history. Loading refuses to silently adopt the regressed version.
    VersionRegression {
        /// 1-based line number of the offending record.
        line: usize,
        /// The version the record carried.
        found: u64,
        /// The version a valid history would carry at that point.
        expected: u64,
    },
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::Io(e) => write!(f, "shard-map journal I/O: {e}"),
            MapError::Parse { line, reason } => {
                write!(f, "shard-map journal line {line}: {reason}")
            }
            MapError::Membership(reason) => write!(f, "shard-map membership: {reason}"),
            MapError::VersionRegression {
                line,
                found,
                expected,
            } => write!(
                f,
                "shard-map journal line {line}: version {found} does not advance \
                 the map to {expected} (stale or duplicated tail)"
            ),
        }
    }
}

impl std::error::Error for MapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MapError::Io(e) => Some(e),
            _ => None,
        }
    }
}

const JOURNAL_HEADER: &str = "dvs-router-shardmap v1";

/// Deterministic rendezvous-hash assignment of `domains` global power
/// domains onto a named shard membership. See the [module docs](self).
#[derive(Debug)]
pub struct ShardMap {
    members: Vec<String>,
    /// The version-1 membership (the journal's `init` record). A member
    /// present since init was born serving the dense version-1
    /// assignment; every later joiner was born empty — the distinction a
    /// restarted router needs to name a shard's unkeyed engine slots.
    initial: Vec<String>,
    domains: usize,
    version: u64,
    journal: Option<PathBuf>,
}

/// FNV-1a over the member name and the domain index: stable across
/// platforms and builds (no `DefaultHasher`, whose algorithm is not
/// guaranteed).
fn weight(member: &str, domain: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in member.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    for b in (domain as u64).to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl ShardMap {
    /// Creates a map over the given members (shard names, index order =
    /// shard index) and domain count, at version 1. When `journal` is
    /// given, the initial membership is written to it (truncating any
    /// previous file — use [`ShardMap::load`] to resume one instead).
    ///
    /// # Errors
    ///
    /// * [`MapError::Membership`] for an empty membership, zero domains,
    ///   a duplicate name, or a name with whitespace or commas (they
    ///   would corrupt the journal format).
    /// * [`MapError::Io`] when the journal cannot be written.
    pub fn new<S: Into<String>>(
        members: Vec<S>,
        domains: usize,
        journal: Option<&Path>,
    ) -> Result<Self, MapError> {
        let members: Vec<String> = members.into_iter().map(Into::into).collect();
        Self::validate(&members, domains)?;
        let map = ShardMap {
            initial: members.clone(),
            members,
            domains,
            version: 1,
            journal: journal.map(Path::to_path_buf),
        };
        if let Some(path) = &map.journal {
            let mut text = format!("{JOURNAL_HEADER}\n");
            text.push_str(&format!(
                "1 init {} {}\n",
                map.domains,
                map.members.join(",")
            ));
            std::fs::write(path, text).map_err(MapError::Io)?;
        }
        Ok(map)
    }

    fn validate(members: &[String], domains: usize) -> Result<(), MapError> {
        if members.is_empty() {
            return Err(MapError::Membership("no members".to_string()));
        }
        if domains == 0 {
            return Err(MapError::Membership("no domains".to_string()));
        }
        for (i, m) in members.iter().enumerate() {
            if m.is_empty() || m.contains(char::is_whitespace) || m.contains(',') {
                return Err(MapError::Membership(format!("invalid member name {m:?}")));
            }
            if members[..i].contains(m) {
                return Err(MapError::Membership(format!("duplicate member {m:?}")));
            }
        }
        Ok(())
    }

    /// Replays a shard-map journal, reconstructing the membership and
    /// version the writer last held.
    ///
    /// # Errors
    ///
    /// [`MapError::Io`] / [`MapError::Parse`] naming the offending line,
    /// and [`MapError::VersionRegression`] when a record's version fails
    /// to advance the map by exactly one (a duplicated or stale tail —
    /// e.g. a torn write followed by a re-append of an older segment).
    pub fn load(path: &Path) -> Result<Self, MapError> {
        let text = std::fs::read_to_string(path).map_err(MapError::Io)?;
        let mut lines = text.lines().enumerate();
        let perr = |line: usize, reason: String| MapError::Parse { line, reason };
        match lines.next() {
            Some((_, JOURNAL_HEADER)) => {}
            other => {
                return Err(perr(1, format!("bad header {:?}", other.map(|(_, l)| l))));
            }
        }
        let mut map: Option<ShardMap> = None;
        for (idx, raw) in lines {
            let line_no = idx + 1;
            let cols: Vec<&str> = raw.split_whitespace().collect();
            if cols.len() != 4 && !(cols.len() == 3 && cols[1] != "init") {
                return Err(perr(line_no, format!("malformed record {raw:?}")));
            }
            let version: u64 = cols[0]
                .parse()
                .map_err(|_| perr(line_no, format!("bad version {:?}", cols[0])))?;
            match (cols[1], &mut map) {
                ("init", None) => {
                    let domains: usize = cols[2]
                        .parse()
                        .map_err(|_| perr(line_no, format!("bad domain count {:?}", cols[2])))?;
                    let members: Vec<String> = cols[3].split(',').map(String::from).collect();
                    Self::validate(&members, domains).map_err(|e| perr(line_no, e.to_string()))?;
                    map = Some(ShardMap {
                        initial: members.clone(),
                        members,
                        domains,
                        version,
                        journal: None,
                    });
                }
                ("add", Some(m)) => {
                    if version != m.version + 1 {
                        return Err(MapError::VersionRegression {
                            line: line_no,
                            found: version,
                            expected: m.version + 1,
                        });
                    }
                    m.apply_add(cols[2])
                        .map_err(|e| perr(line_no, e.to_string()))?;
                    m.version = version;
                }
                ("remove", Some(m)) => {
                    if version != m.version + 1 {
                        return Err(MapError::VersionRegression {
                            line: line_no,
                            found: version,
                            expected: m.version + 1,
                        });
                    }
                    m.apply_remove(cols[2])
                        .map_err(|e| perr(line_no, e.to_string()))?;
                    m.version = version;
                }
                (op, _) => return Err(perr(line_no, format!("unexpected record {op:?}"))),
            }
        }
        let mut map = map.ok_or_else(|| perr(1, "journal has no init record".to_string()))?;
        map.journal = Some(path.to_path_buf());
        Ok(map)
    }

    /// Member names in shard-index order.
    #[must_use]
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// The version-1 membership (what the journal's `init` record
    /// carried). Members present here were born serving the dense
    /// version-1 assignment; members added by later reshards were born
    /// with zero domains and grew purely via imports.
    #[must_use]
    pub fn initial_members(&self) -> &[String] {
        &self.initial
    }

    /// The domains `member` was *born* serving, in ascending global
    /// order: an initial member's dense version-1 assignment, nothing for
    /// a later joiner.
    #[must_use]
    pub fn birth_domains(&self, member: &str) -> Vec<usize> {
        let Some(idx) = self.initial.iter().position(|m| m == member) else {
            return Vec::new();
        };
        ShardMap::new(self.initial.clone(), self.domains, None)
            .expect("the initial membership was validated when the map was built")
            .owned(idx)
    }

    /// Number of global power domains being assigned.
    #[must_use]
    pub fn domains(&self) -> usize {
        self.domains
    }

    /// Current map version: 1 at creation, bumped by every membership
    /// change.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The shard index owning global domain `g`: the member with the
    /// highest rendezvous weight (ties — astronomically unlikely with a
    /// 64-bit hash — break towards the lower shard index, keeping the
    /// assignment total and unique by construction).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    #[must_use]
    pub fn shard_for(&self, g: usize) -> usize {
        assert!(g < self.domains, "domain {g} out of range");
        let mut best = 0usize;
        let mut best_w = weight(&self.members[0], g);
        for (i, m) in self.members.iter().enumerate().skip(1) {
            let w = weight(m, g);
            if w > best_w {
                best = i;
                best_w = w;
            }
        }
        best
    }

    /// The sorted list of global domains shard `s` owns. A shard serves
    /// its owned domains as local domains `0..owned.len()` in this order —
    /// the global↔local translation the router applies on every request
    /// and decision-log line.
    #[must_use]
    pub fn owned(&self, s: usize) -> Vec<usize> {
        (0..self.domains)
            .filter(|&g| self.shard_for(g) == s)
            .collect()
    }

    /// Adds a member, bumping the version and journaling the change.
    ///
    /// # Errors
    ///
    /// [`MapError::Membership`] for invalid/duplicate names,
    /// [`MapError::Io`] when the journal append fails.
    pub fn add_member(&mut self, name: &str) -> Result<(), MapError> {
        self.apply_add(name)?;
        self.version += 1;
        self.append(&format!("{} add {name}\n", self.version))
    }

    /// Removes a member, bumping the version and journaling the change.
    /// The last member cannot be removed.
    ///
    /// # Errors
    ///
    /// [`MapError::Membership`] for unknown names or an emptying
    /// membership, [`MapError::Io`] when the journal append fails.
    pub fn remove_member(&mut self, name: &str) -> Result<(), MapError> {
        self.apply_remove(name)?;
        self.version += 1;
        self.append(&format!("{} remove {name}\n", self.version))
    }

    fn apply_add(&mut self, name: &str) -> Result<(), MapError> {
        let mut next = self.members.clone();
        next.push(name.to_string());
        Self::validate(&next, self.domains)?;
        self.members = next;
        Ok(())
    }

    fn apply_remove(&mut self, name: &str) -> Result<(), MapError> {
        if self.members.len() == 1 {
            return Err(MapError::Membership(
                "cannot remove the last member".to_string(),
            ));
        }
        let pos = self
            .members
            .iter()
            .position(|m| m == name)
            .ok_or_else(|| MapError::Membership(format!("unknown member {name:?}")))?;
        self.members.remove(pos);
        Ok(())
    }

    fn append(&self, record: &str) -> Result<(), MapError> {
        let Some(path) = &self.journal else {
            return Ok(());
        };
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(MapError::Io)?;
        f.write_all(record.as_bytes()).map_err(MapError::Io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("shard{i}")).collect()
    }

    /// A per-invocation-unique scratch directory, so concurrent test
    /// runs never collide on a shared journal path.
    fn scratch_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dvs_router_{test}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn every_domain_maps_to_exactly_one_shard() {
        for k in 1..=5 {
            let map = ShardMap::new(names(k), 16, None).unwrap();
            let mut owned_total = 0;
            for s in 0..k {
                owned_total += map.owned(s).len();
            }
            assert_eq!(owned_total, 16, "k={k}: owned sets must partition");
            for g in 0..16 {
                let s = map.shard_for(g);
                assert!(map.owned(s).contains(&g));
            }
        }
    }

    #[test]
    fn assignment_is_deterministic() {
        let a = ShardMap::new(names(4), 32, None).unwrap();
        let b = ShardMap::new(names(4), 32, None).unwrap();
        for g in 0..32 {
            assert_eq!(a.shard_for(g), b.shard_for(g));
        }
    }

    #[test]
    fn removal_only_moves_the_removed_members_domains() {
        let mut map = ShardMap::new(names(4), 64, None).unwrap();
        let before: Vec<String> = (0..64)
            .map(|g| map.members()[map.shard_for(g)].clone())
            .collect();
        map.remove_member("shard2").unwrap();
        for (g, owner) in before.iter().enumerate() {
            if owner != "shard2" {
                assert_eq!(
                    &map.members()[map.shard_for(g)],
                    owner,
                    "domain {g} moved although its owner stayed"
                );
            }
        }
    }

    #[test]
    fn version_bumps_on_membership_change_and_journal_replays() {
        let dir = scratch_dir("map_test");
        let path = dir.join("map.journal");
        let mut map = ShardMap::new(names(2), 8, Some(&path)).unwrap();
        assert_eq!(map.version(), 1);
        map.add_member("shard2").unwrap();
        assert_eq!(map.version(), 2);
        map.remove_member("shard0").unwrap();
        assert_eq!(map.version(), 3);
        let loaded = ShardMap::load(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(loaded.version(), 3);
        assert_eq!(loaded.members(), map.members());
        assert_eq!(
            loaded.initial_members(),
            names(2),
            "replay must preserve the version-1 membership"
        );
        for g in 0..8 {
            assert_eq!(loaded.shard_for(g), map.shard_for(g));
        }
    }

    #[test]
    fn load_rejects_a_regressed_or_stale_journal_tail() {
        let dir = scratch_dir("map_regress_test");
        let path = dir.join("map.journal");
        let mut map = ShardMap::new(names(2), 8, Some(&path)).unwrap();
        map.add_member("shard2").unwrap();
        // Re-append the version-2 record: a duplicated tail after a torn
        // write. The load must fail with the typed error, not silently
        // adopt the stale version.
        let text = std::fs::read_to_string(&path).unwrap();
        let dup = text.lines().last().unwrap().replace("shard2", "shard3");
        std::fs::write(&path, format!("{text}{dup}\n")).unwrap();
        let err = ShardMap::load(&path).unwrap_err();
        let _ = std::fs::remove_dir_all(&dir);
        match err {
            MapError::VersionRegression {
                line,
                found,
                expected,
            } => {
                assert_eq!(line, 4);
                assert_eq!(found, 2);
                assert_eq!(expected, 3);
            }
            other => panic!("expected VersionRegression, got {other}"),
        }
    }

    #[test]
    fn invalid_memberships_are_rejected() {
        assert!(ShardMap::new(Vec::<String>::new(), 4, None).is_err());
        assert!(ShardMap::new(vec!["a"], 0, None).is_err());
        assert!(ShardMap::new(vec!["a", "a"], 4, None).is_err());
        assert!(ShardMap::new(vec!["a b"], 4, None).is_err());
        assert!(ShardMap::new(vec!["a,b"], 4, None).is_err());
        let mut map = ShardMap::new(vec!["solo"], 4, None).unwrap();
        assert!(map.remove_member("solo").is_err());
        assert!(map.remove_member("ghost").is_err());
        assert!(map.add_member("solo").is_err());
    }
}
