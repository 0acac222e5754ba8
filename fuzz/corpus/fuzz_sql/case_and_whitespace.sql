SELECT Substring(First FROM 2 FOR 3)
  AS Part FROM T1 -- upper case, newlines, a comment
 WHERE first IS NOT NULL AND char_length(substring(first from 2 for 3)) = 3