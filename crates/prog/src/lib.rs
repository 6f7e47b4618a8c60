//! `torpedo-prog`: the SYZKALLER-style program layer (§2.6).
//!
//! Typed syscall descriptions, the program intermediate representation with
//! cross-call resource flow, text (de)serialization for seeds, biased
//! generation, the four genetic operators (splice / add / remove /
//! mutate-arg), coverage-signal tracking, the corpus, and a generic
//! shrinking engine.
//!
//! # Examples
//! ```
//! use std::collections::HashSet;
//! use torpedo_rng::{rngs::StdRng, SeedableRng};
//! use torpedo_prog::{build_table, gen_program, Mutator};
//!
//! let table = build_table();
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut prog = gen_program(&table, 8, &HashSet::new(), &mut rng);
//! Mutator::default().mutate(&mut prog, &table, None, &mut rng);
//! prog.validate(&table)?;
//! # Ok::<(), torpedo_prog::ValidationError>(())
//! ```

pub mod bias;
pub mod cgen;
pub mod corpus;
pub mod desc;
pub mod distance;
pub mod gen;
pub mod id;
pub mod minimize;
pub mod mutate;
pub mod program;
pub mod serialize;
pub mod signal;
pub mod table;

pub use cgen::{generate_c, CGenOptions};
pub use corpus::{Corpus, CorpusItem};
pub use desc::{ArgSpec, ArgType, InterfaceGroup, ResKind, SyscallDesc};
pub use distance::{channel_triggers, DirectedTarget, DistanceMap, CHANNEL_TRIGGERS};
pub use gen::{gen_program, gen_program_directed};
pub use id::ProgramId;
pub use minimize::{minimize, MinimizeStats};
pub use mutate::{MutatePolicy, MutationOp, Mutator};
pub use program::{ArgValue, Call, Program, ValidationError};
pub use serialize::{deserialize, deserialize_with, serialize, ParseError};
pub use signal::{CoverageSet, ProgramCoverage};
pub use table::{build_table, find, NameIndex, PATHS, SOCKET_FAMILIES, XATTR_NAMES};
