//! Empty on purpose: `crossbeam` is named in `trass-kv`'s manifest but used only by its tests.
