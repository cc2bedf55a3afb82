//! The 45 GNOME faults of Table 2: 39 environment-independent, 3
//! environment-dependent-nontransient, 3 environment-dependent-transient.
//!
//! GNOME's modules release independently, so Figure 2 plots reports per
//! month rather than per release (§5.2); all entries share release index 0
//! and the filing months reproduce the figure's shape (high early counts, a
//! dip, then growth again). The six environment-dependent entries are the
//! paper's own trigger descriptions; `gnome-ei-01` … `gnome-ei-05` are the
//! paper's named examples and the rest are reconstructed deterministic
//! desktop bugs (see `DESIGN.md`).

use crate::fault::CuratedFault;
use faultstudy_core::taxonomy::AppKind::Gnome;
use faultstudy_env::condition::ConditionKind as C;

/// The single release of the study period.
pub(crate) const RELEASES: &[&str] = &["GNOME 1.0"];

/// All 45 GNOME entries.
pub(crate) static ENTRIES: &[CuratedFault] = &[
    // ------------------------------ 1998-09 (3) ------------------------------
    CuratedFault { slug: "gnome-ei-01", app: Gnome, title: "clicking the tasklist tab in gnome-pager settings kills the pager", detail: "The settings notebook dereferences a page record that is never allocated for the tasklist tab.", trigger: None, release_idx: 0, filed: (1998, 9) },
    CuratedFault { slug: "gnome-ei-06", app: Gnome, title: "panel applet drag beyond the right edge crashes the panel", detail: "The drop position is divided by a cell width of zero for out-of-range columns.", trigger: None, release_idx: 0, filed: (1998, 9) },
    CuratedFault { slug: "gnome-ei-07", app: Gnome, title: "gmc aborts opening a directory whose name is a single dash", detail: "The argument scanner treats the name as an option terminator and frees the list twice.", trigger: None, release_idx: 0, filed: (1998, 9) },
    // ------------------------------ 1998-10 (4) ------------------------------
    CuratedFault { slug: "gnome-ei-02", app: Gnome, title: "prev button in the year view of the gnome calendar crashes it", detail: "A value is assigned to a local copy of the variable instead of the global copy.", trigger: None, release_idx: 0, filed: (1998, 10) },
    CuratedFault { slug: "gnome-ei-08", app: Gnome, title: "gnumeric crashes pasting a cell range into itself", detail: "The paste iterator walks the region being overwritten.", trigger: None, release_idx: 0, filed: (1998, 10) },
    CuratedFault { slug: "gnome-ei-09", app: Gnome, title: "session manager dies restoring a session with zero clients", detail: "The restore loop dereferences the head of an empty client list.", trigger: None, release_idx: 0, filed: (1998, 10) },
    CuratedFault { slug: "gnome-edn-01", app: Gnome, title: "applications misaddress their own display after a rename", detail: "The hostname of the machine was changed while the application was running; the stale name is part of the saved state.", trigger: Some(C::HostnameChanged), release_idx: 0, filed: (1998, 10) },
    // ------------------------------ 1998-11 (5) ------------------------------
    CuratedFault { slug: "gnome-ei-03", app: Gnome, title: "gnumeric crashes on tab in the define-name dialog", detail: "Caused by initializing a variable to an incorrect value; also triggered from the File/Summary dialog.", trigger: None, release_idx: 0, filed: (1998, 11) },
    CuratedFault { slug: "gnome-ei-10", app: Gnome, title: "gnome-pim deletes the wrong appointment when the list is sorted descending", detail: "The row-to-record mapping is recomputed after the delete target is chosen, then the stale index is freed.", trigger: None, release_idx: 0, filed: (1998, 11) },
    CuratedFault { slug: "gnome-ei-11", app: Gnome, title: "panel crashes removing the last launcher from a drawer", detail: "The drawer's button array shrinks to zero and the redraw indexes entry 0.", trigger: None, release_idx: 0, filed: (1998, 11) },
    CuratedFault { slug: "gnome-ei-12", app: Gnome, title: "gmc segfaults renaming a file to an empty string", detail: "The rename dialog passes the empty buffer straight to the tree relabel.", trigger: None, release_idx: 0, filed: (1998, 11) },
    CuratedFault { slug: "gnome-edt-01", app: Gnome, title: "application dies at startup for no apparent reason", detail: "Unknown failure of application which works on a retry.", trigger: Some(C::UnknownTransient), release_idx: 0, filed: (1998, 11) },
    // ------------------------------ 1998-12 (6) ------------------------------
    CuratedFault { slug: "gnome-ei-04", app: Gnome, title: "double-clicking a tar.gz icon on the desktop crashes gmc", detail: "Caused by the declaration of a variable as long instead of unsigned long.", trigger: None, release_idx: 0, filed: (1998, 12) },
    CuratedFault { slug: "gnome-ei-13", app: Gnome, title: "calendar recurrence editor crashes on a weekly event with no weekday checked", detail: "The recurrence expander divides by the number of selected weekdays.", trigger: None, release_idx: 0, filed: (1998, 12) },
    CuratedFault { slug: "gnome-ei-14", app: Gnome, title: "gnumeric aborts loading a sheet whose name contains a slash", detail: "The sheet name is used unescaped as a temporary path component.", trigger: None, release_idx: 0, filed: (1998, 12) },
    CuratedFault { slug: "gnome-ei-15", app: Gnome, title: "panel clock applet crashes when the format string is empty", detail: "strftime() output of length zero is passed to a label constructor expecting at least one byte.", trigger: None, release_idx: 0, filed: (1998, 12) },
    CuratedFault { slug: "gnome-ei-16", app: Gnome, title: "help browser segfaults on a page with nested unclosed lists", detail: "The list-depth counter underflows and indexes the indent table at -1.", trigger: None, release_idx: 0, filed: (1998, 12) },
    CuratedFault { slug: "gnome-edn-02", app: Gnome, title: "desktop becomes unresponsive after hours of audio use", detail: "Open sockets left around by sound utilities while exiting; each open socket consumes a file descriptor and the application runs out of file descriptors.", trigger: Some(C::FdExhaustion), release_idx: 0, filed: (1998, 12) },
    // ------------------------------ 1999-01 (5) ------------------------------
    CuratedFault { slug: "gnome-ei-05", app: Gnome, title: "clicking the desktop to dismiss the main menu freezes the desktop", detail: "After popping up the main menu, a click on the desktop to remove the menu deadlocks the grab handling.", trigger: None, release_idx: 0, filed: (1999, 1) },
    CuratedFault { slug: "gnome-ei-17", app: Gnome, title: "gmc crashes copying a directory into one of its own subdirectories", detail: "The copy walker revisits the destination and recurses until the stack is gone.", trigger: None, release_idx: 0, filed: (1999, 1) },
    CuratedFault { slug: "gnome-ei-18", app: Gnome, title: "gnumeric formula with 255 nested parentheses crashes the parser", detail: "The recursive-descent parser has no depth limit and overruns its evaluation stack.", trigger: None, release_idx: 0, filed: (1999, 1) },
    CuratedFault { slug: "gnome-ei-19", app: Gnome, title: "gnome-pim imports a vCalendar with an empty summary and dies on display", detail: "The list view assumes a non-null summary string.", trigger: None, release_idx: 0, filed: (1999, 1) },
    CuratedFault { slug: "gnome-edt-02", app: Gnome, title: "image viewer and property editor crash when used together", detail: "Race condition between a image viewer and a property editor; depends on the exact timing of thread scheduling events.", trigger: Some(C::RaceCondition), release_idx: 0, filed: (1999, 1) },
    // ------------------------------ 1999-02 (2) ------------------------------
    CuratedFault { slug: "gnome-ei-20", app: Gnome, title: "panel crashes when two applets request the same slot at startup", detail: "Deterministic for a saved layout: the second insert frees the shared slot record.", trigger: None, release_idx: 0, filed: (1999, 2) },
    CuratedFault { slug: "gnome-ei-21", app: Gnome, title: "gmc dies listing a directory containing a file with a negative mtime", detail: "The date formatter indexes a month table computed from the negative timestamp.", trigger: None, release_idx: 0, filed: (1999, 2) },
    // ------------------------------ 1999-03 (1) ------------------------------
    CuratedFault { slug: "gnome-ei-22", app: Gnome, title: "gnumeric crashes undoing a column delete past the undo limit", detail: "The undo ring frees the oldest entry and then replays it.", trigger: None, release_idx: 0, filed: (1999, 3) },
    // ------------------------------ 1999-04 (2) ------------------------------
    CuratedFault { slug: "gnome-ei-23", app: Gnome, title: "calendar crashes on an event spanning the daylight-saving boundary", detail: "The duration computation yields -3600 and the layout allocator takes it as unsigned.", trigger: None, release_idx: 0, filed: (1999, 4) },
    CuratedFault { slug: "gnome-ei-24", app: Gnome, title: "panel menu editor segfaults saving an entry with no command", detail: "The serializer writes the command field through a null pointer.", trigger: None, release_idx: 0, filed: (1999, 4) },
    // ------------------------------ 1999-05 (4) ------------------------------
    CuratedFault { slug: "gnome-ei-25", app: Gnome, title: "gmc crashes on a desktop icon whose target was deleted", detail: "The metadata refresh dereferences the stat result of the missing target.", trigger: None, release_idx: 0, filed: (1999, 5) },
    CuratedFault { slug: "gnome-ei-26", app: Gnome, title: "gnumeric export to CSV writes past the quote buffer for 1024-byte cells", detail: "The quoting expansion doubles the cell but the buffer is sized for the original length.", trigger: None, release_idx: 0, filed: (1999, 5) },
    CuratedFault { slug: "gnome-ei-27", app: Gnome, title: "gnome-terminal dies when the scrollback limit is set to zero lines", detail: "The ring allocator returns null for a zero-line buffer and the renderer does not check.", trigger: None, release_idx: 0, filed: (1999, 5) },
    CuratedFault { slug: "gnome-edn-03", app: Gnome, title: "gmc crashes editing the properties of one particular file", detail: "The file has an illegal value in the owner field; the application crashes when trying to edit the file or its properties.", trigger: Some(C::CorruptFileMetadata), release_idx: 0, filed: (1999, 5) },
    // ------------------------------ 1999-06 (6) ------------------------------
    CuratedFault { slug: "gnome-ei-28", app: Gnome, title: "panel crashes toggling auto-hide while a drawer is open", detail: "The hide animation walks the drawer widget tree after the toggle has destroyed it.", trigger: None, release_idx: 0, filed: (1999, 6) },
    CuratedFault { slug: "gnome-ei-29", app: Gnome, title: "gnome-pim todo item with priority 0 crashes the sort", detail: "Priority is used as an index into a five-element colour array starting at 1.", trigger: None, release_idx: 0, filed: (1999, 6) },
    CuratedFault { slug: "gnome-ei-30", app: Gnome, title: "gnumeric crashes recalculating a sheet that references a deleted sheet", detail: "The dependency walker resolves the dangling sheet pointer.", trigger: None, release_idx: 0, filed: (1999, 6) },
    CuratedFault { slug: "gnome-ei-31", app: Gnome, title: "gmc find dialog crashes on a pattern ending with a backslash", detail: "The glob translator copies the escape target from one past the end of the pattern.", trigger: None, release_idx: 0, filed: (1999, 6) },
    CuratedFault { slug: "gnome-ei-32", app: Gnome, title: "background chooser dies previewing a zero-byte image file", detail: "The loader returns null and the preview scaler divides by the image width.", trigger: None, release_idx: 0, filed: (1999, 6) },
    CuratedFault { slug: "gnome-edt-03", app: Gnome, title: "applet removal during a pending action crashes the panel", detail: "Race condition between a request for action from an applet and its removal.", trigger: Some(C::RaceCondition), release_idx: 0, filed: (1999, 6) },
    // ------------------------------ 1999-07 (7) ------------------------------
    CuratedFault { slug: "gnome-ei-33", app: Gnome, title: "panel session save writes a corrupt config for nested drawers", detail: "The drawer depth is encoded into a fixed two-level key and level three overwrites the parent entry.", trigger: None, release_idx: 0, filed: (1999, 7) },
    CuratedFault { slug: "gnome-ei-34", app: Gnome, title: "calendar month view crashes for appointments ending at midnight", detail: "The end-hour of 24 indexes the 24-entry row table.", trigger: None, release_idx: 0, filed: (1999, 7) },
    CuratedFault { slug: "gnome-ei-35", app: Gnome, title: "gnumeric crashes sorting a selection containing merged cells", detail: "The sorter swaps one half of a merged range and the renderer reads the orphaned half.", trigger: None, release_idx: 0, filed: (1999, 7) },
    CuratedFault { slug: "gnome-ei-36", app: Gnome, title: "gmc dies entering a directory with more than 32767 entries", detail: "The entry counter is a signed short and the progress bar divides by its wrapped value.", trigger: None, release_idx: 0, filed: (1999, 7) },
    CuratedFault { slug: "gnome-ei-37", app: Gnome, title: "gnome-pim crashes printing an empty contact list", detail: "The pagination computes ceil(0 / per_page) with a zero divisor.", trigger: None, release_idx: 0, filed: (1999, 7) },
    CuratedFault { slug: "gnome-ei-38", app: Gnome, title: "panel pager crashes switching to a workspace removed by the window manager", detail: "The pager caches the workspace count and indexes the stale array.", trigger: None, release_idx: 0, filed: (1999, 7) },
    CuratedFault { slug: "gnome-ei-39", app: Gnome, title: "file properties dialog dies on a symlink loop", detail: "The target resolver follows links without a depth limit and exhausts the stack.", trigger: None, release_idx: 0, filed: (1999, 7) },
];

#[cfg(test)]
mod tests {
    use super::*;
    use faultstudy_core::taxonomy::FaultClass;
    use std::collections::BTreeMap;

    #[test]
    fn counts_match_table_2() {
        let ei = ENTRIES.iter().filter(|e| e.trigger.is_none()).count();
        let edn = ENTRIES
            .iter()
            .filter(|e| {
                e.trigger.is_some_and(|t| {
                    FaultClass::from_condition(Some(t)) == FaultClass::EnvDependentNonTransient
                })
            })
            .count();
        let edt = ENTRIES.len() - ei - edn;
        assert_eq!((ei, edn, edt), (39, 3, 3));
        assert_eq!(ENTRIES.len(), 45);
    }

    #[test]
    fn monthly_totals_reproduce_figure_2_shape() {
        let mut by_month: BTreeMap<(u16, u8), u32> = BTreeMap::new();
        for e in ENTRIES {
            *by_month.entry(e.filed).or_default() += 1;
        }
        let totals: Vec<u32> = by_month.values().copied().collect();
        assert_eq!(totals, [3, 4, 5, 6, 5, 2, 1, 2, 4, 6, 7]);
        // Shape: a dip in the middle, growth at both ends (§5.2).
        let min_pos = totals.iter().enumerate().min_by_key(|(_, v)| **v).unwrap().0;
        assert!(min_pos > 2 && min_pos < totals.len() - 3, "dip is interior");
        assert!(totals.last().unwrap() > totals.first().unwrap());
    }

    #[test]
    fn single_release_study_period() {
        assert!(ENTRIES.iter().all(|e| e.release_idx == 0));
        assert_eq!(RELEASES.len(), 1);
    }

    #[test]
    fn slugs_unique() {
        let mut slugs: Vec<&str> = ENTRIES.iter().map(|e| e.slug).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), ENTRIES.len());
    }
}
