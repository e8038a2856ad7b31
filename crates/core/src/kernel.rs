//! Loading kernels: parse + type-check + array classification.

use crate::error::Error;
use pug_cuda::ast::{walk_stmts, Stmt};
use pug_cuda::typecheck::{TypeInfo, VarInfo};
use pug_cuda::Kernel;

/// A parsed and type-checked kernel ready for encoding.
#[derive(Clone, Debug)]
pub struct KernelUnit {
    pub kernel: Kernel,
    pub types: TypeInfo,
}

impl KernelUnit {
    /// Parse and type-check a single kernel from CUDA C source.
    pub fn load(src: &str) -> Result<KernelUnit, Error> {
        let kernel = pug_cuda::parse_kernel(src)?;
        let types = pug_cuda::check_kernel(&kernel)?;
        Ok(KernelUnit { kernel, types })
    }

    /// Load a named kernel from a source file containing several.
    pub fn load_named(src: &str, name: &str) -> Result<KernelUnit, Error> {
        let kernels = pug_cuda::parse_program(src)?;
        let kernel = kernels
            .into_iter()
            .find(|k| k.name == name)
            .ok_or_else(|| Error::BadConfig { detail: format!("no kernel named `{name}`") })?;
        let types = pug_cuda::check_kernel(&kernel)?;
        Ok(KernelUnit { kernel, types })
    }

    /// Global-memory array parameters (symbolic inputs/outputs).
    pub fn global_arrays(&self) -> Vec<String> {
        self.kernel.array_params().into_iter().map(str::to_string).collect()
    }

    /// `__shared__` array names declared in the body.
    pub fn shared_arrays(&self) -> Vec<String> {
        walk_stmts(&self.kernel.body)
            .filter_map(|s| match s {
                Stmt::Decl { name, dims, shared: true, .. } if !dims.is_empty() => {
                    Some(name.clone())
                }
                _ => None,
            })
            .collect()
    }

    /// Names of global arrays the kernel writes (syntactically).
    pub fn written_globals(&self) -> Vec<String> {
        let mut out: Vec<String> = walk_stmts(&self.kernel.body)
            .filter_map(|s| match s {
                Stmt::Assign { lhs, .. }
                    if matches!(self.types.vars.get(&lhs.name), Some(VarInfo::GlobalArray { .. })) =>
                {
                    Some(lhs.name.clone())
                }
                _ => None,
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
void k(int *odata, int *idata, int n) {
    __shared__ int buf[bdim.x];
    buf[tid.x] = idata[tid.x];
    __syncthreads();
    if (tid.x < n) odata[tid.x] = buf[tid.x];
}
"#;

    #[test]
    fn classification() {
        let u = KernelUnit::load(SRC).unwrap();
        assert_eq!(u.global_arrays(), vec!["odata", "idata"]);
        assert_eq!(u.shared_arrays(), vec!["buf"]);
        assert_eq!(u.written_globals(), vec!["odata"]);
    }

    #[test]
    fn load_named_picks_kernel() {
        let two = "void a(int *x) { x[tid.x] = 1; } void b(int *y) { y[tid.x] = 2; }";
        let u = KernelUnit::load_named(two, "b").unwrap();
        assert_eq!(u.kernel.name, "b");
        assert!(KernelUnit::load_named(two, "c").is_err());
    }
}
