"""The TACO functional-unit library (paper Fig. 2)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".checksum": ("ChecksumUnit",),
    ".comparator": ("Comparator",),
    ".counter": ("Counter",),
    ".ippu": ("InputPreprocessingUnit",),
    ".liu": ("LocalInfoUnit",),
    ".masker": ("Masker",),
    ".matcher": ("Matcher",),
    ".mmu": ("MemoryManagementUnit",),
    ".oppu": ("OutputPostprocessingUnit",),
    ".rtu": ("ENTRY_STRIDE_SHIFT", "ENTRY_STRIDE_WORDS", "NIL_INDEX",
             "OFF_ENCLOSING", "OFF_INTERFACE", "OFF_LEFT", "OFF_LENGTH",
             "OFF_MASK", "OFF_NETWORK", "OFF_RIGHT", "RoutingTableUnit"),
    ".shifter": ("Shifter",),
})
