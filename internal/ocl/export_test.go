package ocl

// ProgCacheCap exposes the program-cache capacity to external tests.
const ProgCacheCap = progCacheCap
