//! The 44 MySQL faults of Table 3: 38 environment-independent, 4
//! environment-dependent-nontransient, 2 environment-dependent-transient.
//!
//! Figure 3 plots faults per release, totals growing with newer releases
//! except the newest, which "has a substantially lower number of faults
//! because the release is very new" (§5.3). The six environment-dependent
//! entries are the paper's trigger descriptions; `mysql-ei-01` …
//! `mysql-ei-05` are the paper's named examples and the rest are
//! reconstructed deterministic SQL-engine bugs (see `DESIGN.md`).

use crate::fault::CuratedFault;
use faultstudy_core::taxonomy::AppKind::Mysql;
use faultstudy_env::condition::ConditionKind as C;

/// MySQL's releases in study order (drives Figure 3's x-axis).
pub(crate) const RELEASES: &[&str] = &["3.21.33", "3.22.16", "3.22.20", "3.22.25", "3.23.0"];

/// All 44 MySQL entries.
pub(crate) static ENTRIES: &[CuratedFault] = &[
    // ------------------------ release 0: 3.21.33 (5) ------------------------
    CuratedFault { slug: "mysql-ei-01", app: Mysql, title: "updating an index to a value found later while scanning crashes the server", detail: "Scanning the index tree re-finds the updated row and creates duplicate values in the index; solved by first scanning for all matching rows and then updating the found rows.", trigger: None, release_idx: 0, filed: (1998, 5) },
    CuratedFault { slug: "mysql-ei-06", app: Mysql, title: "SELECT with a WHERE clause comparing a column to itself dies", detail: "The optimizer folds the self-comparison into an empty key range and dereferences its null head.", trigger: None, release_idx: 0, filed: (1998, 6) },
    CuratedFault { slug: "mysql-ei-07", app: Mysql, title: "DROP TABLE on a table with an open temporary copy corrupts the table cache", detail: "The cache entry is freed while the temporary copy still points at it.", trigger: None, release_idx: 0, filed: (1998, 7) },
    CuratedFault { slug: "mysql-ei-08", app: Mysql, title: "LIKE pattern ending with an escape character reads past the pattern buffer", detail: "The matcher fetches the escaped byte without a length check.", trigger: None, release_idx: 0, filed: (1998, 8) },
    CuratedFault { slug: "mysql-edn-01", app: Mysql, title: "server refuses new connections while a co-hosted web server is busy", detail: "Shortage of file descriptors due to competition between MySQL and a web server on the same machine.", trigger: Some(C::FdExhaustion), release_idx: 0, filed: (1998, 8) },
    // ------------------------ release 1: 3.22.16 (8) ------------------------
    CuratedFault { slug: "mysql-ei-02", app: Mysql, title: "a query which selects zero records and has an ORDER BY clause crashes the server", detail: "Due to some missing initialization statements in the sort buffer setup.", trigger: None, release_idx: 1, filed: (1998, 9) },
    CuratedFault { slug: "mysql-ei-09", app: Mysql, title: "INSERT of a negative value into an AUTO_INCREMENT column crashes the heap allocator", detail: "The next-value computation wraps and the key buffer is sized from the wrapped length.", trigger: None, release_idx: 1, filed: (1998, 10) },
    CuratedFault { slug: "mysql-ei-10", app: Mysql, title: "GROUP BY on a column with NULLs in every row dies", detail: "The group key hasher dereferences the null indicator as a string.", trigger: None, release_idx: 1, filed: (1998, 10) },
    CuratedFault { slug: "mysql-ei-11", app: Mysql, title: "ALTER TABLE adding a column named like an existing index aborts", detail: "The duplicate-name check compares against the wrong list and the later rename asserts.", trigger: None, release_idx: 1, filed: (1998, 11) },
    CuratedFault { slug: "mysql-ei-12", app: Mysql, title: "SELECT DISTINCT combined with a LIMIT of zero crashes", detail: "The distinct filter flushes a result set that was never allocated.", trigger: None, release_idx: 1, filed: (1998, 11) },
    CuratedFault { slug: "mysql-ei-13", app: Mysql, title: "joining a table to itself with USING on a renamed column dies", detail: "Column resolution binds the second instance to a freed alias record.", trigger: None, release_idx: 1, filed: (1998, 12) },
    CuratedFault { slug: "mysql-ei-14", app: Mysql, title: "REPLACE into a table with a unique key of length zero crashes", detail: "The key comparator divides by the key segment length.", trigger: None, release_idx: 1, filed: (1998, 12) },
    CuratedFault { slug: "mysql-edn-02", app: Mysql, title: "server crashes when it receives a connection request from one remote machine", detail: "Reverse DNS is not configured for the remote host, and the null hostname result is used unchecked.", trigger: Some(C::ReverseDnsMissing), release_idx: 1, filed: (1998, 12) },
    // ------------------------ release 2: 3.22.20 (12) ------------------------
    CuratedFault { slug: "mysql-ei-03", app: Mysql, title: "the use of a COUNT clause on an empty table crashes the server", detail: "Caused by a missing check for empty tables.", trigger: None, release_idx: 2, filed: (1999, 1) },
    CuratedFault { slug: "mysql-ei-04", app: Mysql, title: "an OPTIMIZE TABLE query crashes the server", detail: "Caused by a missing initialization statement in the repair path.", trigger: None, release_idx: 2, filed: (1999, 1) },
    CuratedFault { slug: "mysql-ei-15", app: Mysql, title: "UPDATE with an arithmetic expression dividing by a column of zeros dies", detail: "The constant-folding pass evaluates the division at parse time and longjmps out of the wrong frame.", trigger: None, release_idx: 2, filed: (1999, 2) },
    CuratedFault { slug: "mysql-ei-16", app: Mysql, title: "SELECT INTO OUTFILE with an empty field terminator crashes", detail: "The row writer computes the terminator length with strlen(NULL).", trigger: None, release_idx: 2, filed: (1999, 2) },
    CuratedFault { slug: "mysql-ei-17", app: Mysql, title: "DELETE with a LIMIT larger than 2^24 on a small table aborts", detail: "The row counter is packed into three bytes in the binlog event and the replay asserts.", trigger: None, release_idx: 2, filed: (1999, 3) },
    CuratedFault { slug: "mysql-ei-18", app: Mysql, title: "nested parentheses in a WHERE clause deeper than 64 levels crash the parser", detail: "The yacc stack grows past its fixed arena without a depth check.", trigger: None, release_idx: 2, filed: (1999, 3) },
    CuratedFault { slug: "mysql-ei-19", app: Mysql, title: "GRANT on a database name of 65 characters overruns the privilege buffer", detail: "The privilege table row is sized for 64 bytes and the copy is unchecked.", trigger: None, release_idx: 2, filed: (1999, 4) },
    CuratedFault { slug: "mysql-ei-20", app: Mysql, title: "SHOW COLUMNS on a table mid-ALTER returns freed memory and dies", detail: "Deterministic under LOCK TABLES: the old definition is freed before the listing completes.", trigger: None, release_idx: 2, filed: (1999, 4) },
    CuratedFault { slug: "mysql-ei-21", app: Mysql, title: "string function RPAD to a negative length crashes", detail: "The pad count is cast to unsigned and the result buffer allocation wraps.", trigger: None, release_idx: 2, filed: (1999, 5) },
    CuratedFault { slug: "mysql-ei-22", app: Mysql, title: "HAVING referencing an aliased aggregate of an empty group dies", detail: "The alias resolves to an item whose result field was never initialized.", trigger: None, release_idx: 2, filed: (1999, 5) },
    CuratedFault { slug: "mysql-edn-03", app: Mysql, title: "inserts fail permanently once a table reaches 2 gigabytes", detail: "The size of the database file is greater than the maximum allowed file size of the platform.", trigger: Some(C::MaxFileSize), release_idx: 2, filed: (1999, 5) },
    CuratedFault { slug: "mysql-edt-01", app: Mysql, title: "server occasionally dies during shutdown of a busy instance", detail: "Race condition between the masking of a signal and its arrival; depends on the exact timing of thread scheduling events.", trigger: Some(C::RaceCondition), release_idx: 2, filed: (1999, 5) },
    // ------------------------ release 3: 3.22.25 (15) ------------------------
    CuratedFault { slug: "mysql-ei-05", app: Mysql, title: "a FLUSH TABLES command after a LOCK TABLES command crashes the server", detail: "The flush path re-enters the lock manager and frees the held lock list.", trigger: None, release_idx: 3, filed: (1999, 6) },
    CuratedFault { slug: "mysql-ei-23", app: Mysql, title: "three-way join with overlapping key prefixes returns garbage then aborts", detail: "The range optimizer merges key ranges from different indexes into one buffer.", trigger: None, release_idx: 3, filed: (1999, 6) },
    CuratedFault { slug: "mysql-ei-24", app: Mysql, title: "CREATE TABLE with 3000 columns crashes instead of reporting an error", detail: "The field-count check happens after the definition array is written.", trigger: None, release_idx: 3, filed: (1999, 6) },
    CuratedFault { slug: "mysql-ei-25", app: Mysql, title: "timestamp column updated to the year 2038 boundary dies", detail: "The epoch conversion overflows and indexes a month table with a negative value.", trigger: None, release_idx: 3, filed: (1999, 7) },
    CuratedFault { slug: "mysql-ei-26", app: Mysql, title: "LOAD DATA INFILE with mismatched ENCLOSED BY quotes crashes", detail: "The field splitter leaves the row pointer past the buffer for the unterminated field.", trigger: None, release_idx: 3, filed: (1999, 7) },
    CuratedFault { slug: "mysql-ei-27", app: Mysql, title: "subtracting two unsigned date intervals yields a crash in formatting", detail: "The sign flag is read from uninitialized memory for zero-length intervals.", trigger: None, release_idx: 3, filed: (1999, 7) },
    CuratedFault { slug: "mysql-ei-28", app: Mysql, title: "KILL on a connection id that was never assigned asserts the server", detail: "The thread list walker dereferences the sentinel node for unknown ids.", trigger: None, release_idx: 3, filed: (1999, 8) },
    CuratedFault { slug: "mysql-ei-29", app: Mysql, title: "SELECT from a MERGE table whose last member was dropped dies", detail: "The member array keeps the stale handler pointer.", trigger: None, release_idx: 3, filed: (1999, 8) },
    CuratedFault { slug: "mysql-ei-30", app: Mysql, title: "string comparison with a collation id of 0 crashes the sort", detail: "Collation 0 selects a null comparator from the charset table.", trigger: None, release_idx: 3, filed: (1999, 8) },
    CuratedFault { slug: "mysql-ei-31", app: Mysql, title: "UNION of two selects with different column counts aborts instead of erroring", detail: "The result merger assumes equal field arrays and walks off the shorter one.", trigger: None, release_idx: 3, filed: (1999, 9) },
    CuratedFault { slug: "mysql-ei-32", app: Mysql, title: "DESCRIBE of a table with a 255-character default value crashes", detail: "The info formatter copies the default into a 128-byte column.", trigger: None, release_idx: 3, filed: (1999, 9) },
    CuratedFault { slug: "mysql-ei-33", app: Mysql, title: "REVOKE of a privilege never granted dies updating the grant tables", detail: "The delete path assumes the row exists and unlinks a null node.", trigger: None, release_idx: 3, filed: (1999, 9) },
    CuratedFault { slug: "mysql-ei-34", app: Mysql, title: "temporary table name colliding with a system table corrupts the cache", detail: "The lookup prefers the temporary entry but the eviction removes the system one.", trigger: None, release_idx: 3, filed: (1999, 10) },
    CuratedFault { slug: "mysql-edn-04", app: Mysql, title: "all statements error out and the server finally aborts", detail: "A full file system prevents all operations on the database, including the error log append.", trigger: Some(C::FileSystemFull), release_idx: 3, filed: (1999, 9) },
    CuratedFault { slug: "mysql-edt-02", app: Mysql, title: "administrator command issued during a fresh login crashes the server", detail: "Race condition between a new user login and commands issued by the administrator.", trigger: Some(C::RaceCondition), release_idx: 3, filed: (1999, 10) },
    // ------------------------ release 4: 3.23.0 (4) ------------------------
    CuratedFault { slug: "mysql-ei-35", app: Mysql, title: "new table-scan cache crashes on rows larger than the cache itself", detail: "The row copy is split but the second fragment offset is computed from the first's length twice.", trigger: None, release_idx: 4, filed: (1999, 10) },
    CuratedFault { slug: "mysql-ei-36", app: Mysql, title: "FULLTEXT search for a word longer than the index token limit dies", detail: "The tokenizer truncates but the scorer reads the original length.", trigger: None, release_idx: 4, filed: (1999, 11) },
    CuratedFault { slug: "mysql-ei-37", app: Mysql, title: "REPAIR TABLE on an empty delete-linked chain asserts", detail: "The chain walker expects at least one deleted block.", trigger: None, release_idx: 4, filed: (1999, 11) },
    CuratedFault { slug: "mysql-ei-38", app: Mysql, title: "BDB-backed table with a cursor open across COMMIT crashes", detail: "The cursor keeps a pointer into the transaction arena that commit frees.", trigger: None, release_idx: 4, filed: (1999, 11) },
];

#[cfg(test)]
mod tests {
    use super::*;
    use faultstudy_core::taxonomy::FaultClass;

    #[test]
    fn counts_match_table_3() {
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
        assert_eq!((ei, edn, edt), (38, 4, 2));
        assert_eq!(ENTRIES.len(), 44);
    }

    #[test]
    fn release_totals_reproduce_figure_3_shape() {
        let mut per_release = [0u32; 5];
        for e in ENTRIES {
            per_release[e.release_idx as usize] += 1;
        }
        assert_eq!(per_release, [5, 8, 12, 15, 4]);
        // Totals grow with newer releases except the very new last one (§5.3).
        assert!(per_release[..4].windows(2).all(|w| w[0] < w[1]));
        assert!(per_release[4] < per_release[3]);
    }

    #[test]
    fn slugs_unique_and_release_indexes_valid() {
        let mut slugs: Vec<&str> = ENTRIES.iter().map(|e| e.slug).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), ENTRIES.len());
        assert!(ENTRIES.iter().all(|e| (e.release_idx as usize) < RELEASES.len()));
    }
}
