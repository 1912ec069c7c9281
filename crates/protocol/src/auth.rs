//! Token issuance and validation for node authentication.
//!
//! Registration hands each node a 128-bit bearer token (§3.4: the agent
//! handles "authentication token management"); every subsequent envelope
//! must carry it. Validation is constant-time to avoid timing side channels
//! on the campus LAN — cheap insurance given how simple it is.

use crate::message::{AuthToken, NodeUid};
use rand::RngCore;

/// Issues and validates node tokens (lives in the coordinator).
///
/// A table indexed by uid: the coordinator's directory hands uids out from
/// a counter, so the table is as long as the highest uid ever issued a
/// token and validating a heartbeat is one indexed read.
#[derive(Debug, Default)]
pub struct TokenRegistry {
    tokens: Vec<Option<AuthToken>>,
    /// Occupied slots, so `len` is not a scan.
    active: usize,
}

impl TokenRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Issue a fresh token for a node, replacing any previous one
    /// (re-registration invalidates old credentials). `node` must be a uid
    /// the directory issued: the table grows to it.
    pub fn issue(&mut self, node: NodeUid, rng: &mut impl RngCore) -> AuthToken {
        let mut bytes = [0u8; 16];
        rng.fill_bytes(&mut bytes);
        let token = AuthToken(bytes);
        let slot = node.slot();
        assert!(slot < usize::MAX, "uids are table positions");
        if slot >= self.tokens.len() {
            self.tokens.resize(slot + 1, None);
        }
        if self.tokens[slot].replace(token).is_none() {
            self.active += 1;
        }
        token
    }

    /// Constant-time validation of a presented token.
    pub fn validate(&self, node: NodeUid, presented: &AuthToken) -> bool {
        match self.tokens.get(node.slot()) {
            Some(Some(expected)) => constant_time_eq(&expected.0, &presented.0),
            _ => false,
        }
    }

    /// Revoke a node's token (departure / eviction).
    pub fn revoke(&mut self, node: NodeUid) -> bool {
        let revoked = self
            .tokens
            .get_mut(node.slot())
            .and_then(Option::take)
            .is_some();
        self.active -= usize::from(revoked);
        revoked
    }

    /// Number of active credentials.
    pub fn len(&self) -> usize {
        self.active
    }

    /// True when no credentials are active.
    pub fn is_empty(&self) -> bool {
        self.active == 0
    }
}

/// Bitwise constant-time comparison.
fn constant_time_eq(a: &[u8; 16], b: &[u8; 16]) -> bool {
    let mut diff = 0u8;
    for i in 0..16 {
        diff |= a[i] ^ b[i];
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn issue_validate_revoke() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut reg = TokenRegistry::new();
        let t = reg.issue(NodeUid(1), &mut rng);
        assert!(reg.validate(NodeUid(1), &t));
        assert!(!reg.validate(NodeUid(2), &t), "token bound to node");
        assert!(!reg.validate(NodeUid(1), &AuthToken([0; 16])));
        assert!(reg.revoke(NodeUid(1)));
        assert!(!reg.validate(NodeUid(1), &t), "revoked");
        assert!(!reg.revoke(NodeUid(1)), "double revoke is false");
    }

    #[test]
    fn reissue_invalidates_old() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut reg = TokenRegistry::new();
        let t1 = reg.issue(NodeUid(1), &mut rng);
        let t2 = reg.issue(NodeUid(1), &mut rng);
        assert_ne!(t1, t2);
        assert!(!reg.validate(NodeUid(1), &t1));
        assert!(reg.validate(NodeUid(1), &t2));
    }

    #[test]
    fn tokens_are_distinct_across_nodes() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut reg = TokenRegistry::new();
        let t1 = reg.issue(NodeUid(1), &mut rng);
        let t2 = reg.issue(NodeUid(2), &mut rng);
        assert_ne!(t1, t2);
        assert_eq!(reg.len(), 2);
    }

    /// The table against the map it replaced, under random issue / revoke
    /// / re-issue: same answers from `validate` (out-of-range uids
    /// included), same `revoke` results, and `len` stays exact.
    #[test]
    fn table_matches_the_map_it_replaced() {
        use rand::Rng;
        use std::collections::HashMap;
        let mut rng = SmallRng::seed_from_u64(4);
        let mut reg = TokenRegistry::new();
        let mut map: HashMap<NodeUid, AuthToken> = HashMap::new();
        assert!(
            !reg.validate(NodeUid(0), &AuthToken([0; 16])),
            "empty table"
        );
        for _ in 0..2_000 {
            let node = NodeUid(rng.gen_range(0..24));
            if rng.gen_bool(0.6) {
                let token = reg.issue(node, &mut rng);
                map.insert(node, token);
            } else {
                assert_eq!(reg.revoke(node), map.remove(&node).is_some());
            }
            assert_eq!(reg.len(), map.len());
            assert_eq!(reg.is_empty(), map.is_empty());
            for uid in (0..26).chain([u64::MAX]) {
                let uid = NodeUid(uid);
                let held = map.get(&uid);
                assert_eq!(held.is_some_and(|t| reg.validate(uid, t)), held.is_some());
                assert!(!reg.validate(uid, &AuthToken([0xA5; 16])));
            }
        }
        assert!(!reg.revoke(NodeUid(u64::MAX)), "never issued");
    }

    #[test]
    fn constant_time_eq_basics() {
        assert!(constant_time_eq(&[5; 16], &[5; 16]));
        let mut b = [5; 16];
        b[15] = 6;
        assert!(!constant_time_eq(&[5; 16], &b));
    }
}
