"""Time-to-tolerance benchmark of the apd package; see README.md."""
