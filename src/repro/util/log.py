"""The ``repro`` logger hierarchy.

Library rules (stdlib ``logging`` best practice):

* every module logs through ``get_logger(__name__)``-style child loggers
  under the single ``repro`` root;
* the library installs only a ``NullHandler`` — importing repro never
  configures logging, prints nothing, and leaves handler policy to the
  application;
* the CLI opts into output with :func:`configure_logging`
  (``--log-level``/``-v``), which attaches one stream handler to the
  ``repro`` root.

Warnings carry structured ``extra={}`` fields (degradation source/target,
interval event…) so a custom handler — e.g.
:class:`repro.obs.observer.SpanLogHandler`, which turns records into
instant spans on a trace — can ship them without parsing messages.
"""

from __future__ import annotations

import logging
from typing import Optional

__all__ = ["get_logger", "configure_logging", "ROOT_LOGGER_NAME"]

ROOT_LOGGER_NAME = "repro"

# The library never emits to a handler the application didn't install.
logging.getLogger(ROOT_LOGGER_NAME).addHandler(logging.NullHandler())


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the ``repro`` hierarchy.

    ``get_logger("resilience")`` → ``repro.resilience``; module callers
    usually pass a dotted suffix mirroring their module path.  Passing a
    name already rooted at ``repro`` (e.g. ``__name__``) is accepted as-is.
    """
    if not name:
        return logging.getLogger(ROOT_LOGGER_NAME)
    if name == ROOT_LOGGER_NAME or name.startswith(ROOT_LOGGER_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")


def configure_logging(
    level: Optional[str] = None,
    verbosity: int = 0,
    stream=None,
) -> logging.Logger:
    """Attach a stream handler to the ``repro`` root (CLI entry point).

    ``level`` is an explicit name (``"DEBUG"``…); otherwise ``verbosity``
    maps ``0 → WARNING``, ``1 → INFO``, ``≥2 → DEBUG`` (the CLI's ``-v`` /
    ``-vv``).  Idempotent: re-configuring replaces the previously attached
    stream handler instead of stacking duplicates.
    """
    if level is not None:
        resolved = logging.getLevelName(level.upper())
        if not isinstance(resolved, int):
            raise ValueError(f"unknown log level {level!r}")
    elif verbosity >= 2:
        resolved = logging.DEBUG
    elif verbosity == 1:
        resolved = logging.INFO
    else:
        resolved = logging.WARNING

    root = logging.getLogger(ROOT_LOGGER_NAME)
    for handler in list(root.handlers):
        if getattr(handler, "_repro_cli_handler", False):
            root.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    handler._repro_cli_handler = True  # type: ignore[attr-defined]
    root.addHandler(handler)
    root.setLevel(resolved)
    return root
