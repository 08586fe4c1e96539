"""`MuddError`, raised for every input mudd cannot check, and `read_text`,
which reports a file that cannot be read, or is not UTF-8 text, as one."""


class MuddError(Exception):
    """An input mudd cannot check: a bad model, CSV, catalog or setting.
    Its message is the line `mudd` prints after `error: `."""


def read_text(path, name: str) -> str:
    """The text of the file at `path`, decoded as UTF-8 without a leading
    byte order mark, with each line end made "\\n" as `open` makes it. A
    file that cannot be read raises MuddError naming `path` as given and
    the reason; a byte that is not UTF-8 raises MuddError that names the
    file as `name`, and the line of the byte."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise MuddError(f"{path}: {exc.strerror}") from None
    try:
        # in one call: an incremental decoder takes a file holding part of
        # a byte order mark for an empty one
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is every byte after the byte order mark
        line = len((exc.object[:exc.start] + b".").splitlines())
        raise MuddError(
            f"{name} line {line}: byte 0x{exc.object[exc.start]:02x} is not UTF-8 text"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")
