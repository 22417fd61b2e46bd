"""Exception hierarchy shared by all pipeline stages."""


class WeldmapError(Exception):
    """Base class; carries an optional stage / submesh context for the CLI."""

    code = "WELDMAP_ERROR"

    def __init__(self, message, *, stage=None, submesh=None, hint=None, code=None):
        super().__init__(message)
        self.stage = stage
        self.submesh = submesh
        self.hint = hint
        if code is not None:
            self.code = code

    def describe(self):
        parts = [self.code]
        if self.stage is not None:
            parts.append(f"stage={self.stage}")
        if self.submesh is not None:
            parts.append(f"submesh={self.submesh}")
        parts.append(str(self))
        if self.hint:
            parts.append(f"hint: {self.hint}")
        return " | ".join(parts)


class ParseError(WeldmapError):
    code = "PARSE_ERROR"


class NonManifold(WeldmapError):
    code = "NON_MANIFOLD"


class WrongTopology(WeldmapError):
    code = "WRONG_TOPOLOGY"


class DegenerateFace(WeldmapError):
    code = "DEGENERATE_FACE"


class DisconnectedSubmesh(WeldmapError):
    code = "DISCONNECTED_SUBMESH"


class SubmeshWithTwoHoles(WeldmapError):
    code = "SUBMESH_WITH_TWO_HOLES"


class NoValidPlan(WeldmapError):
    code = "NO_VALID_PLAN"


class SingularSystem(WeldmapError):
    code = "SINGULAR_SYSTEM"


class MuOutOfRange(WeldmapError):
    code = "MU_OUT_OF_RANGE"


class MissingBoundaryValue(WeldmapError):
    code = "MISSING_BOUNDARY_VALUE"


class NumericalBreakdown(WeldmapError):
    code = "NUMERICAL_BREAKDOWN"


class MisorderedArc(WeldmapError):
    code = "MISORDERED_ARC"


class BadAxisPoints(WeldmapError):
    code = "BAD_AXIS_POINTS"


class ZeroXi(WeldmapError):
    code = "ZERO_XI"


class PathInsidePolygon(WeldmapError):
    code = "PATH_INSIDE_POLYGON"


class SeamMismatch(WeldmapError):
    code = "SEAM_MISMATCH"


class ConfigError(WeldmapError):
    code = "CONFIG_ERROR"

