"""Exception types shared across the package."""


class RepresentationError(ValueError):
    """A field carries the wrong representation tag for the operation."""


class SizingError(ValueError):
    """A construction does not fit on the supplied grid, or its sized grid passes the cap."""

    def __init__(self, msg, required_points=None, required_half_width=None):
        super().__init__(msg)
        self.required_points = required_points
        self.required_half_width = required_half_width


class EnvironmentSettingError(ValueError):
    """An environment variable holds a value the package cannot use."""

    def __init__(self, name, value, expected):
        super().__init__(f"environment variable {name} must be {expected}, got {value!r}")
        self.name = name
        self.value = value


class FieldDumpError(ValueError):
    """A field dump file is malformed: bad magic, header or payload length."""

    def __init__(self, path, problem):
        super().__init__(f"{path}: {problem}")
        self.path = path


class EllipticityError(ValueError):
    """The sampled Hessian of a phase fails to be positive definite."""


class TractabilityError(ValueError):
    """A computation exceeds the configured size caps."""


class SeparationError(ValueError):
    """Frequency supports violate a required separation."""
