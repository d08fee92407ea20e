//! Two-party protocol transcript accounting (semi-honest model, §II-F).
//!
//! Records each message's direction and size so protocols can report
//! communication alongside computation. No networking — parties live in
//! one process and exchange values by method call, with the transcript as
//! the audit trail.

/// Protocol roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Data party A (holds a vector share / features without labels).
    PartyA,
    /// Data party B (holds the matrix / features and labels).
    PartyB,
    /// The aggregating arbiter (holds the HE secret key in HeteroLR).
    Arbiter,
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Role::PartyA => write!(f, "A"),
            Role::PartyB => write!(f, "B"),
            Role::Arbiter => write!(f, "arbiter"),
        }
    }
}

/// One logged message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sender.
    pub from: Role,
    /// Receiver.
    pub to: Role,
    /// Human-readable label (e.g. `"[[u_A]]"`).
    pub label: String,
    /// Serialized size in bytes.
    pub bytes: usize,
}

/// A protocol transcript.
#[derive(Debug, Clone, Default)]
pub struct Transcript {
    messages: Vec<Message>,
}

impl Transcript {
    /// An empty transcript.
    pub fn new() -> Self {
        Self::default()
    }

    /// Logs a message.
    pub fn send(&mut self, from: Role, to: Role, label: impl Into<String>, bytes: usize) {
        self.messages.push(Message {
            from,
            to,
            label: label.into(),
            bytes,
        });
    }

    /// All messages in order.
    pub fn messages(&self) -> &[Message] {
        &self.messages
    }

    /// Total bytes exchanged.
    pub fn total_bytes(&self) -> usize {
        self.messages.iter().map(|m| m.bytes).sum()
    }

    /// Number of communication rounds (direction changes + 1).
    pub fn rounds(&self) -> usize {
        if self.messages.is_empty() {
            return 0;
        }
        1 + self
            .messages
            .windows(2)
            .filter(|w| (w[0].from, w[0].to) != (w[1].from, w[1].to))
            .count()
    }
}

/// Serialized size of an RLWE ciphertext in bytes (limbs × degree × 8 per
/// component).
pub fn rlwe_ciphertext_bytes(ct: &cham_he::prelude::RlweCiphertext) -> usize {
    2 * ct.b().context().len() * ct.b().context().degree() * 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting() {
        let mut t = Transcript::new();
        t.send(Role::PartyA, Role::PartyB, "[[u_A]]", 1000);
        t.send(Role::PartyA, Role::PartyB, "[[u_A2]]", 500);
        t.send(Role::PartyB, Role::Arbiter, "[[grad]]", 2000);
        assert_eq!(t.total_bytes(), 3500);
        assert_eq!(t.rounds(), 2);
        assert_eq!(t.messages().len(), 3);
    }

    #[test]
    fn empty_transcript() {
        let t = Transcript::new();
        assert_eq!(t.rounds(), 0);
        assert_eq!(t.total_bytes(), 0);
    }

    #[test]
    fn role_display() {
        assert_eq!(Role::PartyA.to_string(), "A");
        assert_eq!(Role::Arbiter.to_string(), "arbiter");
    }
}
