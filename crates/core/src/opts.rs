//! Implementation selection and lowering options.

/// Which TAM back-end to lower to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Implementation {
    /// The Active Messages implementation (§2.1): inlets run at high
    /// priority and post threads into per-frame ready lists; a background
    /// scheduler activates one frame at a time. Thread bodies run with
    /// interrupts disabled except for a brief window at the top of each
    /// thread (the "unenabled" variant the paper measures).
    Am,
    /// The "enabled" AM variant of §2.4: interrupts stay enabled inside
    /// thread bodies except during continuation-vector access, letting a
    /// local I-structure reply extend the current quantum.
    AmEnabled,
    /// The Message-Driven implementation (§2.2): the hardware message
    /// queue is the task queue; inlets run at low priority and branch
    /// directly into threads.
    Md,
}

impl Implementation {
    /// Short label for reports ("AM", "AM-en", "MD").
    pub fn label(self) -> &'static str {
        match self {
            Implementation::Am => "AM",
            Implementation::AmEnabled => "AM-en",
            Implementation::Md => "MD",
        }
    }

    /// Whether this is one of the Active-Messages variants.
    pub fn is_am(self) -> bool {
        matches!(self, Implementation::Am | Implementation::AmEnabled)
    }
}

/// Toggleable lowering optimizations (ablation knobs).
///
/// The MD flags correspond to the Section 2.3 observation that "because
/// inlets pass control directly to threads instead of placing them into a
/// continuation vector, a bigger region of code is open to conventional
/// optimization". All default to on — the paper's MD implementation is
/// described with these benefits in effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoweringOptions {
    /// MD: place a specialized copy of a thread directly after the sole
    /// inlet that posts it, eliminating the `post`/branch (Section 2.3's
    /// "the code for the thread can be placed immediately after the
    /// inlet, eliminating the need for line I3").
    pub md_specialize: bool,
    /// MD: in a specialized inlet/thread pair, keep the message value in
    /// its register instead of reloading it from the frame ("the reload of
    /// the register in line T1 can be eliminated"), and drop the frame
    /// store entirely when no other code reads the slot ("if no other
    /// threads use frame slot 5, line I2 can be removed").
    pub md_store_elim: bool,
    /// MD: convert a specialized thread's `stop` into a `suspend` when the
    /// LCV is statically known to be empty ("if thread 1 contains no
    /// pushes onto the LCV, then the LCV is known to be empty, and the
    /// stop can be converted to a suspend instruction").
    pub md_stop_to_suspend: bool,
}

impl Default for LoweringOptions {
    fn default() -> Self {
        LoweringOptions {
            md_specialize: true,
            md_store_elim: true,
            md_stop_to_suspend: true,
        }
    }
}

impl LoweringOptions {
    /// All Section 2.3 optimizations disabled (ablation baseline).
    pub fn none() -> Self {
        LoweringOptions {
            md_specialize: false,
            md_store_elim: false,
            md_stop_to_suspend: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(Implementation::Am.label(), "AM");
        assert_eq!(Implementation::Md.label(), "MD");
        assert_eq!(Implementation::AmEnabled.label(), "AM-en");
    }

    #[test]
    fn am_family() {
        assert!(Implementation::Am.is_am());
        assert!(Implementation::AmEnabled.is_am());
        assert!(!Implementation::Md.is_am());
    }

    #[test]
    fn default_options_enable_everything() {
        let o = LoweringOptions::default();
        assert!(o.md_specialize && o.md_store_elim && o.md_stop_to_suspend);
        let n = LoweringOptions::none();
        assert!(!n.md_specialize && !n.md_store_elim && !n.md_stop_to_suspend);
    }
}
