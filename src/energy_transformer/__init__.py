"""Energy-based transformer block; import from the submodules in README's "Package layout"."""
