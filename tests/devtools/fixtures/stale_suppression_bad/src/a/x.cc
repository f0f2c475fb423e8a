namespace a {
int plain_value = 0;  // analyze: allow(positional-strategy-index)
}  // namespace a
