"""End-to-end benchmark of the geolocation pipeline (see README.md)."""
